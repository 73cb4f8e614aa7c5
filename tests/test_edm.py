"""Gram/EDM construction, double-centering, spectrum, and the test statistic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmdetect import (
    GeometryError,
    GramSpectrum,
    NoiseModel,
    SpectrumError,
    augment_edm,
    centered_gram,
    centered_gram_eigvals,
    centering_matrix,
    edm_from_gram,
    generate_constellation,
    gram_centered,
    gram_from_positions,
    nominal_pseudoranges,
    spectrum,
    test_statistic as q_statistic,
    true_ranges,
)
from edmdetect.edm import ORDERING_MAGNITUDE, _order_indices

RNG = np.random.default_rng(2024)


def pairwise_sq_dist_oracle(points):
    """Brute-force pairwise squared distances (independent of the library)."""
    n = len(points)
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            D[i, j] = sum((points[i][k] - points[j][k]) ** 2 for k in range(3))
    return D


class TestGramFromPositions:
    def test_zero_positions(self):
        assert np.all(gram_from_positions(np.zeros((3, 5))) == 0.0)

    def test_orthonormal_basis_gives_identity(self):
        np.testing.assert_allclose(gram_from_positions(np.eye(3)), np.eye(3), atol=1e-15)

    def test_matches_dot_product_loop(self):
        X = RNG.normal(scale=1e7, size=(3, 12))
        G = gram_from_positions(X)
        for i in range(12):
            for j in range(12):
                assert G[i, j] == pytest.approx(float(X[:, i] @ X[:, j]), rel=1e-12)

    def test_rejects_nonfinite(self):
        X = np.zeros((3, 5))
        X[0, 0] = np.nan
        with pytest.raises(ValueError):
            gram_from_positions(X)


class TestEdmFromGram:
    def test_zero_gram(self):
        assert np.all(edm_from_gram(np.zeros((4, 4))).entries == 0.0)

    def test_two_point_oracle(self):
        X = np.array([[0.0, 3.0], [0.0, 4.0], [0.0, 0.0]])
        D = edm_from_gram(gram_from_positions(X)).entries
        np.testing.assert_allclose(D, [[0.0, 25.0], [25.0, 0.0]], atol=1e-12)

    def test_zero_diagonal_forced(self):
        G = gram_from_positions(RNG.normal(size=(3, 9)))
        assert np.all(np.diag(edm_from_gram(G).entries) == 0.0)

    def test_matches_bruteforce_for_random_positions(self):
        pts = RNG.normal(scale=1e6, size=(10, 3))
        D = edm_from_gram(gram_from_positions(pts.T)).entries
        np.testing.assert_allclose(D, pairwise_sq_dist_oracle(pts), rtol=1e-9)


class TestAugmentEdm:
    def test_single_entry(self):
        out = augment_edm(np.array([[0.0]]), np.array([5.0]))
        np.testing.assert_array_equal(out.entries, [[0.0, 25.0], [25.0, 0.0]])

    def test_consistent_measurements_give_exact_edm(self, scenario12):
        # Zero-noise zero-bias pseudoranges: the augmented matrix must equal
        # the brute-force EDM of {receiver} union satellites.
        d = true_ranges(scenario12)
        D = edm_from_gram(gram_from_positions(scenario12.satellites.T))
        augmented = augment_edm(D, d).entries
        points = np.vstack([scenario12.receiver, scenario12.satellites])
        np.testing.assert_allclose(augmented, pairwise_sq_dist_oracle(points), rtol=1e-9)

    def test_symmetry_for_random_inputs(self, scenario12):
        d = true_ranges(scenario12)
        rho = d + RNG.uniform(0, 1e5, size=d.shape)
        out = augment_edm(edm_from_gram(gram_from_positions(scenario12.satellites.T)), rho)
        np.testing.assert_array_equal(out.entries, out.entries.T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            augment_edm(np.zeros((3, 3)), np.array([1.0, 2.0]))

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            augment_edm(np.zeros((2, 2)), np.array([1.0, 0.0]))


class TestGramCentered:
    def test_zero_matrix(self):
        assert np.all(gram_centered(np.zeros((5, 5))) == 0.0)

    def test_row_sums_vanish(self, scenario12, noise_default):
        d = true_ranges(scenario12)
        G_c = centered_gram(scenario12.satellites, d + noise_default.bias_b)
        ones = np.ones(G_c.shape[0])
        assert np.linalg.norm(G_c @ ones) <= 1e-9 * np.linalg.norm(G_c)

    def test_projector_idempotent(self):
        J = centering_matrix(13)
        np.testing.assert_allclose(J @ J, J, atol=1e-12)

    def test_consistent_case_has_three_nonzero_eigenvalues(self, scenario12):
        # Noiseless, zero-bias: the centered Gram collapses to rank 3.
        d = true_ranges(scenario12)
        w = spectrum(centered_gram(scenario12.satellites, d)).eigenvalues
        n_nonzero = int(np.sum(np.abs(w) > 1e-9 * np.abs(w).max()))
        assert n_nonzero == 3


@pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
# Magnitude is the one ranking; the parameter keeps the test ids.
@pytest.mark.parametrize("ordering", [ORDERING_MAGNITUDE])
def test_batched_gram_and_ordering_match_rowwise(scenario12, noise_default, lead, ordering):
    # A stack of pseudorange vectors must give, bit for bit, the matrices
    # built one vector at a time; likewise for the eigenvalue ranking.
    d = true_ranges(scenario12)
    rho = d + noise_default.bias_b + RNG.normal(0.0, 3.0, size=lead + d.shape)
    block = centered_gram(scenario12.satellites, rho)
    rows = [centered_gram(scenario12.satellites, r) for r in rho.reshape(-1, d.size)]
    assert np.array_equal(block, np.reshape(rows, block.shape))
    # Small integers force ties, including +/- pairs under magnitude ranking.
    w = RNG.integers(-3, 4, size=lead + (9,)).astype(float)
    idx = _order_indices(w)
    rows = [_order_indices(r) for r in w.reshape(-1, 9)]
    assert np.array_equal(idx, np.reshape(rows, idx.shape))


class TestCenteredGramEigvals:
    @pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3)])
    def test_matches_full_eigensolve_and_stacks_rowwise(self, scenario12, noise_default, lead):
        # The rank-5 kernel returns the spectrum of centered_gram: five Ritz
        # values plus m - 4 exact zeros. Each row's values are bit-identical
        # whether it is computed alone or in a stack.
        d = true_ranges(scenario12)
        rho = d + noise_default.bias_b + RNG.normal(0.0, 3.0, size=lead + d.shape)
        w = centered_gram_eigvals(scenario12.satellites, rho)
        assert w.shape == lead + (d.size + 1,)
        assert np.all(w[..., 5:] == 0.0)
        full = np.linalg.eigvalsh(centered_gram(scenario12.satellites, rho))
        scale = np.abs(full).max(axis=-1, keepdims=True)
        assert np.all(np.abs(np.sort(w, axis=-1) - full) <= 1e-12 * scale)
        rows = [centered_gram_eigvals(scenario12.satellites, r) for r in rho.reshape(-1, d.size)]
        assert np.array_equal(w, np.reshape(rows, w.shape))

    def test_typed_errors(self, scenario12):
        d = true_ranges(scenario12)
        bad = scenario12.satellites.copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            centered_gram_eigvals(bad, d)
        with pytest.raises(ValueError, match="positive"):
            centered_gram_eigvals(scenario12.satellites, np.where(np.arange(d.size) == 4, 0.0, d))
        for value in (np.nan, np.inf, -np.inf):
            rho = np.where(np.arange(d.size) == 4, value, d)
            with pytest.raises(GeometryError, match="positive and finite"):
                centered_gram_eigvals(scenario12.satellites, rho)
            with pytest.raises(GeometryError, match="positive and finite"):
                centered_gram_eigvals(scenario12.satellites, np.stack([d, rho, d]))
        with pytest.raises(ValueError, match="entries"):
            centered_gram_eigvals(scenario12.satellites, d[:-1])
        # A pseudorange whose square overflows is refused before it is squared.
        with pytest.raises(GeometryError, match="finite squares"):
            centered_gram_eigvals(
                scenario12.satellites, np.where(np.arange(d.size) == 4, 1e155, d)
            )


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    m=st.integers(5, 30),
    mask=st.sampled_from([5.0, 10.0, 20.0, 40.0]),
    seed=st.integers(1, 6),
    sigma=st.floats(1e-6, 300.0),
    bias=st.sampled_from([0.0, 1.0, 100.0, 1e5]),
)
def test_kernel_matches_dense_eigensolve_and_stacks_rowwise(m, mask, seed, sigma, bias):
    # The secular kernel on generated constellations: its sorted values lie
    # within 1e-12 of the scale of the dense eigvalsh of centered_gram, and
    # every row has the same bits alone as inside the stack.
    g = generate_constellation(m, mask, seed=seed)
    rho = true_ranges(g) + bias + np.random.default_rng(seed).normal(0.0, sigma, (3, m))
    w = centered_gram_eigvals(g.satellites, rho)
    full = np.linalg.eigvalsh(centered_gram(g.satellites, rho))
    scale = np.abs(full).max(axis=-1, keepdims=True)
    assert np.all(np.abs(np.sort(w, axis=-1) - full) <= 1e-12 * scale)
    for row, r in zip(w, rho):
        assert np.array_equal(centered_gram_eigvals(g.satellites, r), row)


class TestSpectrum:
    def test_identity_matrix(self):
        s = spectrum(np.eye(6))
        np.testing.assert_array_equal(s.eigenvalues, np.ones(6))

    def test_ordering_definitions(self):
        M = np.diag([5.0, -2.0, 1.0])
        np.testing.assert_array_equal(spectrum(M).eigenvalues, [5.0, -2.0, 1.0])

    def test_nonfinite_input(self):
        M = np.eye(4)
        M[0, 0] = np.inf
        with pytest.raises(SpectrumError):
            spectrum(M)

    def test_spectral_reconstruction(self, scenario12, noise_default):
        d = true_ranges(scenario12)
        G_c = centered_gram(scenario12.satellites, d + noise_default.bias_b)
        s = spectrum(G_c)
        recon = (s.eigenvectors * s.eigenvalues[None, :]) @ s.eigenvectors.T
        assert np.abs(recon - G_c).max() <= 1e-6 * np.abs(G_c).max()

    def test_eigenpair_invariants(self, scenario12, noise_default):
        d = true_ranges(scenario12)
        G_c = centered_gram(scenario12.satellites, d + noise_default.bias_b)
        s = spectrum(G_c)
        V = s.eigenvectors
        np.testing.assert_allclose(V.T @ V, np.eye(s.n), atol=1e-9)
        # Residuals of a backward-stable solver scale with the spectral norm,
        # so that is the right yardstick even for the near-zero eigenvalues.
        scale = max(1.0, float(np.abs(s.eigenvalues).max()))
        for i in range(s.n):
            lam, z = s.eigenpair(i + 1)
            assert np.linalg.norm(G_c @ z - lam * z) <= 1e-6 * scale
            lead = np.argmax(np.abs(z))
            assert z[lead] > 0  # deterministic sign convention

    def test_eigenpair_bounds(self):
        s = spectrum(np.eye(3))
        with pytest.raises(IndexError):
            s.eigenpair(0)
        with pytest.raises(IndexError):
            s.eigenpair(4)


class TestTestStatistic:
    def test_arithmetic_on_definition(self):
        s = GramSpectrum(
            eigenvalues=np.array([10.0, 8.0, 6.0, 1.0, 1.0, 0.0]),
            eigenvectors=np.eye(6),
        )
        assert q_statistic(s) == pytest.approx(0.1, rel=1e-15)

    def test_consistent_case_gives_zero(self, scenario12):
        d = true_ranges(scenario12)
        q = q_statistic(spectrum(centered_gram(scenario12.satellites, d)))
        assert abs(q) <= 1e-9

    def test_scale_invariance(self, scenario12, noise_default):
        d = true_ranges(scenario12)
        rho = nominal_pseudoranges(d, noise_default).rho
        q1 = q_statistic(spectrum(centered_gram(scenario12.satellites, rho)))
        for c in (0.001, 7.3, 1024.0):
            scaled = type(scenario12)(
                receiver=c * scenario12.receiver, satellites=c * scenario12.satellites
            )
            q2 = q_statistic(spectrum(centered_gram(scaled.satellites, c * rho)))
            assert q2 == pytest.approx(q1, rel=1e-6)

    def test_permutation_invariance(self, scenario12, noise_default):
        d = true_ranges(scenario12)
        rho = d + noise_default.bias_b
        base = np.sort(spectrum(centered_gram(scenario12.satellites, rho)).eigenvalues)
        perm = RNG.permutation(scenario12.m)
        permuted = type(scenario12)(
            receiver=scenario12.receiver, satellites=scenario12.satellites[perm]
        )
        other = np.sort(spectrum(centered_gram(permuted.satellites, rho[perm])).eigenvalues)
        np.testing.assert_allclose(other, base, rtol=1e-9, atol=1e-9 * np.abs(base).max())

    def test_requires_five_eigenvalues(self):
        s = spectrum(np.eye(4))
        with pytest.raises(SpectrumError):
            q_statistic(s)

    def test_zero_leading_eigenvalue_fails(self):
        s = spectrum(np.zeros((6, 6)))
        with pytest.raises(SpectrumError, match="degenerate"):
            q_statistic(s)


def test_bias_activation_adds_two_eigenvalues(scenario12):
    # Noiseless but biased measurements activate exactly two extra
    # eigenvalues beyond the geometric three.
    d = true_ranges(scenario12)
    nm = NoiseModel(sigma_v=1.0, bias_b=1.0e5)
    rho = nominal_pseudoranges(d, nm).rho
    w = spectrum(centered_gram(scenario12.satellites, rho)).eigenvalues
    n_nonzero = int(np.sum(np.abs(w) > 1e-9 * np.abs(w).max()))
    assert n_nonzero == 5
