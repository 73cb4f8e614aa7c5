"""Gram/EDM construction, double-centering, spectrum, and the test statistic."""

import math

import numpy as np
import pytest
from conftest import RINGS
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edmdetect import (
    DegenerateEigenvalueError,
    GeometryError,
    NoiseModel,
    ScenarioGeometry,
    SpectrumError,
    augment_edm,
    centered_gram,
    centered_gram_eigvals,
    centering_matrix,
    edm_from_gram,
    eigenvalue_sensitivities,
    generate_constellation,
    gram_centered,
    gram_from_positions,
    nominal_pseudoranges,
    predict_q_distribution,
    run_trials,
    spectrum,
    test_statistic as q_statistic,
    true_ranges,
)
from edmdetect.cli import read_mapping
from edmdetect.edm import MAX_LENGTH_M, MIN_LENGTH_M, _order_indices

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
        assert np.all(edm_from_gram(np.zeros((4, 4))) == 0.0)

    def test_two_point_oracle(self):
        X = np.array([[0.0, 3.0], [0.0, 4.0], [0.0, 0.0]])
        D = edm_from_gram(gram_from_positions(X))
        np.testing.assert_allclose(D, [[0.0, 25.0], [25.0, 0.0]], atol=1e-12)

    def test_zero_diagonal_forced(self):
        G = gram_from_positions(RNG.normal(size=(3, 9)))
        assert np.all(np.diag(edm_from_gram(G)) == 0.0)

    def test_matches_bruteforce_for_random_positions(self):
        pts = RNG.normal(scale=1e6, size=(10, 3))
        D = edm_from_gram(gram_from_positions(pts.T))
        np.testing.assert_allclose(D, pairwise_sq_dist_oracle(pts), rtol=1e-9)


class TestAugmentEdm:
    def test_single_entry(self):
        out = augment_edm(np.array([[0.0]]), np.array([5.0]))
        np.testing.assert_array_equal(out, [[0.0, 25.0], [25.0, 0.0]])

    def test_consistent_measurements_give_exact_edm(self, scenario12):
        # Zero-noise zero-bias pseudoranges: the augmented matrix must equal
        # the brute-force EDM of {receiver} union satellites.
        d = true_ranges(scenario12)
        D = edm_from_gram(gram_from_positions(scenario12.satellites.T))
        augmented = augment_edm(D, d)
        points = np.vstack([scenario12.receiver, scenario12.satellites])
        np.testing.assert_allclose(augmented, pairwise_sq_dist_oracle(points), rtol=1e-9)

    def test_symmetry_for_random_inputs(self, scenario12):
        d = true_ranges(scenario12)
        rho = d + RNG.uniform(0, 1e5, size=d.shape)
        out = augment_edm(edm_from_gram(gram_from_positions(scenario12.satellites.T)), rho)
        np.testing.assert_array_equal(out, out.T)

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
        w, _ = spectrum(centered_gram(scenario12.satellites, d))
        n_nonzero = int(np.sum(np.abs(w) > 1e-9 * np.abs(w).max()))
        assert n_nonzero == 3


@pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
# Magnitude is the one ranking; the parameter keeps the test ids.
@pytest.mark.parametrize("ordering", ["magnitude"])
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
        # So is a position whose Gram entries would overflow.
        with pytest.raises(GeometryError, match="coordinates at most"):
            centered_gram(scenario12.satellites * 1e160, d)


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


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    m=st.integers(5, 60),
    seed=st.integers(1, 3),
    ring=st.one_of(st.none(), st.sampled_from(sorted(p.name for p in RINGS.glob("*.yaml")))),
    k=st.integers(int(math.log2(MIN_LENGTH_M)), -40),
    low=st.integers(0, 2**60 - 1),
    spread=st.integers(3, 60),
)
@example(m=5, seed=1, ring="ring_e0.0001_m8_refused.yaml", k=int(math.log2(MIN_LENGTH_M)),
         low=1, spread=3)
@example(m=60, seed=1, ring=None, k=int(math.log2(MIN_LENGTH_M)), low=2**59, spread=3)
def test_extreme_lengths_keep_the_kernel_finite(m, seed, ring, k, low, spread):
    # The kernel's h0 grows as |rho|^4 / L^2. From L = MIN_LENGTH_M to 2^-40 m,
    # on generated constellations and the checked-in rings, pseudoranges at
    # MAX_LENGTH_M and at 2^-60 of it (bit j of ``low`` picks satellite j's),
    # and trials with sigma_v and bias near it, give finite eigenvalues or a
    # typed error. An overflow's RuntimeWarning fails the test (pyproject).
    if ring is None:
        g = generate_constellation(m, 10.0, seed=seed)
    else:
        doc = read_mapping(RINGS / ring)
        g = ScenarioGeometry(doc["receiver"], doc["satellites"])
    s = 2.0**k / g.length_scale
    g = ScenarioGeometry(g.receiver * s, g.satellites * s)
    small = np.array([low >> j & 1 for j in range(g.m)], dtype=bool)
    rho = np.where(small, MAX_LENGTH_M * 2.0**-60, MAX_LENGTH_M)
    nm = NoiseModel(sigma_v=MAX_LENGTH_M * 2.0**-spread, bias_b=MAX_LENGTH_M / 2)
    calls = [
        lambda: centered_gram_eigvals(g.satellites, np.stack([rho, rho[::-1]])),
        lambda: run_trials(g, nm, 64, 1).lambdas,
    ]
    for call in calls:
        try:
            values = call()
        except (GeometryError, SpectrumError):
            continue
        assert np.all(np.isfinite(values))


def _rotation(quaternion):
    """The rotation matrix of a non-zero quaternion (a, b, c, d)."""
    a, b, c, d = np.asarray(quaternion) / np.linalg.norm(quaternion)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    m=st.integers(5, 30),
    mask=st.sampled_from([5.0, 10.0, 20.0, 40.0]),
    seed=st.integers(1, 6),
    sigma=st.floats(1e-6, 300.0),
    bias=st.sampled_from([1e3, 1e5]),
    quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
        lambda v: np.linalg.norm(v) > 0.1
    ),
    shift=st.tuples(*[st.floats(-1e8, 1e8)] * 3),
)
def test_q_and_prediction_are_invariant_under_rigid_motion(
    m, mask, seed, sigma, bias, quaternion, shift
):
    # A rotation plus a translation changes no distance. With rho fixed,
    # q through the literal EDM chain and through the rank-5 kernel stays
    # within 1e-6 relative (the scale check's tolerance, fixed in advance);
    # moving the receiver too keeps the predicted mu_q and sigma_q there.
    g = generate_constellation(m, mask, seed=seed)
    R = _rotation(quaternion)
    moved = ScenarioGeometry(
        receiver=R @ g.receiver + shift, satellites=g.satellites @ R.T + shift
    )
    rho = true_ranges(g) + bias + np.random.default_rng(seed).normal(0.0, sigma, m)

    def q_chain(S):
        D = edm_from_gram(gram_from_positions(S.T))
        return q_statistic(spectrum(gram_centered(augment_edm(D, rho))))

    def q_kernel(S):
        w = centered_gram_eigvals(S, rho)
        w = w[_order_indices(w)]
        return (w[3] + w[4]) / (2.0 * w[0])

    for q in (q_chain, q_kernel):
        assert q(moved.satellites) == pytest.approx(q(g.satellites), rel=1e-6)
    nm = NoiseModel(sigma_v=sigma, bias_b=bias)
    try:
        before = predict_q_distribution(g, nm)
    except DegenerateEigenvalueError:
        # A geometry whose lambda_5 the gap guard refuses is refused moved too.
        with pytest.raises(DegenerateEigenvalueError):
            predict_q_distribution(moved, nm)
        return
    after = predict_q_distribution(moved, nm)
    assert after.mu_q == pytest.approx(before.mu_q, rel=1e-6)
    assert after.sigma_q == pytest.approx(before.sigma_q, rel=1e-6)


class TestSpectrum:
    def test_identity_matrix(self):
        w, _ = spectrum(np.eye(6))
        np.testing.assert_array_equal(w, np.ones(6))

    def test_ordering_definitions(self):
        M = np.diag([5.0, -2.0, 1.0])
        np.testing.assert_array_equal(spectrum(M)[0], [5.0, -2.0, 1.0])

    def test_nonfinite_input(self):
        M = np.eye(4)
        M[0, 0] = np.inf
        with pytest.raises(SpectrumError):
            spectrum(M)

    def test_spectral_reconstruction(self, scenario12, noise_default):
        d = true_ranges(scenario12)
        G_c = centered_gram(scenario12.satellites, d + noise_default.bias_b)
        w, V = spectrum(G_c)
        recon = (V * w[None, :]) @ V.T
        assert np.abs(recon - G_c).max() <= 1e-6 * np.abs(G_c).max()

    def test_eigenpair_invariants(self, scenario12, noise_default):
        d = true_ranges(scenario12)
        G_c = centered_gram(scenario12.satellites, d + noise_default.bias_b)
        w, V = spectrum(G_c)
        np.testing.assert_allclose(V.T @ V, np.eye(w.size), atol=1e-9)
        # Residuals of a backward-stable solver scale with the spectral norm,
        # so that is the right yardstick even for the near-zero eigenvalues.
        scale = max(1.0, float(np.abs(w).max()))
        for lam, z in zip(w, V.T):
            assert np.linalg.norm(G_c @ z - lam * z) <= 1e-6 * scale

    @pytest.mark.parametrize("m, mask", [(5, 10.0), (12, 10.0), (30, 5.0)])
    def test_sensitivities_ignore_eigenvector_signs(self, m, mask, noise_default):
        # Why spectrum leaves each sign to the eigensolver: negating any
        # eigenvector column leaves every sensitivity row bit for bit as it was.
        g = generate_constellation(m, mask, seed=1)
        rho = nominal_pseudoranges(true_ranges(g), noise_default).rho
        w, V0 = spectrum(centered_gram(g.satellites, rho))
        base, _ = eigenvalue_sensitivities((w, V0), rho)
        for col in range(m + 1):
            V = V0.copy(order="K")  # same strides, so same BLAS sums
            V[:, col] = -V[:, col]
            assert np.array_equal(eigenvalue_sensitivities((w, V), rho)[0], base), col


class TestTestStatistic:
    def test_arithmetic_on_definition(self):
        s = (np.array([10.0, 8.0, 6.0, 1.0, 1.0, 0.0]), np.eye(6))
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
        base = np.sort(spectrum(centered_gram(scenario12.satellites, rho))[0])
        perm = RNG.permutation(scenario12.m)
        permuted = type(scenario12)(
            receiver=scenario12.receiver, satellites=scenario12.satellites[perm]
        )
        other = np.sort(spectrum(centered_gram(permuted.satellites, rho[perm]))[0])
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
    w, _ = spectrum(centered_gram(scenario12.satellites, rho))
    n_nonzero = int(np.sum(np.abs(w) > 1e-9 * np.abs(w).max()))
    assert n_nonzero == 5
