"""First-order sensitivities, moment propagation, and the ratio approximation.

Oracles used here are independent of the code under test: matrix and
eigenvalue central differences rebuilt from scratch (long-double and mpmath
arithmetic), a brute-force sampling check for the Gaussian ratio, and an
erfc-bisection quantile for thresholds.
"""

import math

import mpmath
import numpy as np
import pytest

from edmdetect import (
    DegenerateEigenvalueError,
    NoiseModel,
    centered_gram,
    detection_threshold,
    eigenvalue_sensitivities,
    eigenvalue_variance,
    gram_sensitivities,
    nominal_pseudoranges,
    numerator_moments,
    predict_q_distribution,
    ratio_gaussian,
    spectrum,
    true_ranges,
)
from edmdetect.edm import ORDERING_MAGNITUDE, GramSpectrum, centering_matrix
from edmdetect.perturbation import SensitivityTable, StatisticDistribution

RNG = np.random.default_rng(555)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def centered_gram_oracle(satellites, rho, dtype=float):
    """Pipeline rebuilt with loops in the requested dtype (float or longdouble)."""
    sats = np.asarray(satellites, dtype=dtype)
    rho = np.asarray(rho, dtype=dtype)
    m = sats.shape[0]
    n = m + 1
    D = np.zeros((n, n), dtype=dtype)
    for i in range(m):
        for j in range(m):
            D[i + 1, j + 1] = np.sum((sats[i] - sats[j]) ** 2)
    D[0, 1:] = rho**2
    D[1:, 0] = rho**2
    J = np.eye(n, dtype=dtype) - np.ones((n, n), dtype=dtype) / dtype(n)
    return -J @ D @ J / dtype(2)


def matrix_fd_oracle(satellites, rho, j, h, dtype=float):
    """Central difference of the centered Gram w.r.t. pseudorange j."""
    rp = np.array(rho, dtype=dtype)
    rm = np.array(rho, dtype=dtype)
    rp[j] += dtype(h)
    rm[j] -= dtype(h)
    Gp = centered_gram_oracle(satellites, rp, dtype)
    Gm = centered_gram_oracle(satellites, rm, dtype)
    return np.asarray((Gp - Gm) / (dtype(2) * dtype(h)), dtype=float)


def eig_fd_oracle(satellites, rho, j, h, positions, dps=40):
    """Central difference of tracked eigenvalues, magnitude ordering.

    Rebuilds the augmented matrix and its double-centering in mpmath floats
    and diagonalizes with mpmath's symmetric solver, so the oracle shares no
    numerics with the library path.
    """
    with mpmath.workdps(dps):
        m = len(rho)
        n = m + 1
        hm = mpmath.mpf(float(h))

        def tracked_eigs(rvec):
            D = mpmath.zeros(n, n)
            for a in range(m):
                for b in range(m):
                    if a != b:
                        D[a + 1, b + 1] = sum(
                            (mpmath.mpf(float(satellites[a][k]))
                             - mpmath.mpf(float(satellites[b][k]))) ** 2
                            for k in range(3)
                        )
            for a in range(m):
                D[0, a + 1] = rvec[a] ** 2
                D[a + 1, 0] = rvec[a] ** 2
            J = mpmath.eye(n) - mpmath.ones(n, n) / n
            Gc = -J * D * J / 2
            vals = mpmath.eigsy(Gc, eigvals_only=True)
            ordered = sorted([vals[i] for i in range(n)], key=lambda x: -abs(x))
            return [ordered[p - 1] for p in positions]

        base = [mpmath.mpf(float(x)) for x in rho]
        plus = list(base)
        plus[j] += hm
        minus = list(base)
        minus[j] -= hm
        wp = tracked_eigs(plus)
        wm = tracked_eigs(minus)
        return [float((a - b) / (2 * hm)) for a, b in zip(wp, wm)]


def normal_quantile_oracle(p, tol=1e-12):
    """Standard-normal quantile by bisection on the erfc-based CDF."""
    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def nominal_pipeline(scenario, nm, ordering=ORDERING_MAGNITUDE):
    d = true_ranges(scenario)
    rho = nominal_pseudoranges(d, nm).rho
    return rho, spectrum(centered_gram(scenario.satellites, rho), ordering)


# ---------------------------------------------------------------------------
# Gram sensitivities
# ---------------------------------------------------------------------------

class TestGramSensitivities:
    def test_zero_rho_gives_zero_matrices(self):
        gs = gram_sensitivities(np.zeros(6))
        assert np.all(gs.matrices == 0.0)

    def test_each_matrix_is_centered_and_symmetric(self, scenario12, noise_default):
        rho = nominal_pseudoranges(true_ranges(scenario12), noise_default).rho
        gs = gram_sensitivities(rho)
        ones = np.ones(scenario12.m + 1)
        for M in gs.matrices:
            np.testing.assert_array_equal(M, M.T)
            assert np.linalg.norm(M @ ones) <= 1e-9 * np.linalg.norm(M)

    def test_matches_explicit_projector_construction(self):
        # dG_j must equal -1/2 J E_j J with E_j holding 2 rho_j at (0, j+1).
        rho = np.array([3.0, 7.0, 2.0, 11.0, 5.0])
        m = rho.shape[0]
        J = centering_matrix(m + 1)
        gs = gram_sensitivities(rho)
        for j in range(m):
            E = np.zeros((m + 1, m + 1))
            E[0, j + 1] = E[j + 1, 0] = 2.0 * rho[j]
            np.testing.assert_allclose(gs.matrices[j], -0.5 * J @ E @ J, atol=1e-14)

    def test_finite_difference_small_scale(self):
        # Synthetic km-scale points keep the float64 difference clean.
        sats = RNG.normal(scale=2e3, size=(6, 3))
        rho = np.abs(RNG.normal(loc=3e3, scale=300, size=6))
        gs = gram_sensitivities(rho)
        for j in range(6):
            fd = matrix_fd_oracle(sats, rho, j, 1e-3)
            scale = np.abs(gs.matrices[j]).max()
            np.testing.assert_allclose(gs.matrices[j], fd, atol=1e-6 * scale, rtol=1e-6)

    def test_finite_difference_gps_scale(self, scenario12, noise_default):
        # At 1e7-meter ranges the oracle needs long-double headroom; the
        # derivative itself is exact for the quadratic entries.
        rho = nominal_pseudoranges(true_ranges(scenario12), noise_default).rho
        gs = gram_sensitivities(rho)
        for j in (0, 5, 11):
            fd = matrix_fd_oracle(scenario12.satellites, rho, j, 1e-3, np.longdouble)
            err = np.abs(gs.matrices[j] - fd) / np.maximum(np.abs(gs.matrices[j]), 1e-300)
            assert err.max() <= 1e-6


# ---------------------------------------------------------------------------
# Eigenvalue sensitivities
# ---------------------------------------------------------------------------

def diag_spectrum(values):
    n = len(values)
    return GramSpectrum(
        eigenvalues=np.array(values, dtype=float),
        eigenvectors=np.eye(n),
        ordering=ORDERING_MAGNITUDE,
    )


class TestEigenvalueSensitivities:
    def test_zero_perturbation_gives_zero_rows(self, scenario12, noise_default):
        rho = nominal_pseudoranges(true_ranges(scenario12), noise_default).rho
        _, spec = nominal_pipeline(scenario12, noise_default)
        gs = gram_sensitivities(rho)
        gs.matrices[:] = 0.0
        table = eigenvalue_sensitivities(spec, gs)
        assert np.all(table.s == 0.0)

    def test_textbook_diagonal_case(self):
        # G = diag(distinct), dG_j = diag(w_j): s_{i,j} = w_j[i].
        spec = diag_spectrum([5.0, 3.0, 1.0])
        w = np.array([[0.4, -0.2, 0.7], [1.5, 0.3, -0.9]])
        gs_matrices = np.stack([np.diag(w[0]), np.diag(w[1])])
        from edmdetect.perturbation import GramSensitivity

        gs = GramSensitivity(matrices=gs_matrices, rho=np.ones(2))
        table = eigenvalue_sensitivities(spec, gs, tracked=(1, 2, 3))
        np.testing.assert_allclose(table.s, w.T[[0, 1, 2]], atol=1e-15)

    def test_degenerate_eigenvalue_refused(self):
        spec = diag_spectrum([5.0, 2.0, 2.0 + 1e-13])
        from edmdetect.perturbation import GramSensitivity

        gs = GramSensitivity(matrices=np.zeros((2, 3, 3)), rho=np.ones(2))
        with pytest.raises(DegenerateEigenvalueError, match="bias"):
            eigenvalue_sensitivities(spec, gs, tracked=(2,))

    def test_matches_eigenvalue_finite_differences(self, scenario12, noise_default):
        # h = 1e-3 m central differences through the full pipeline must agree
        # to 1e-4 relative (floor 1 m^2/m) on every tracked entry.
        rho, spec = nominal_pipeline(scenario12, noise_default)
        table = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        for j in range(scenario12.m):
            fds = eig_fd_oracle(scenario12.satellites, rho, j, 1e-3, (1, 4, 5))
            for a in range(3):
                err = abs(table.s[a, j] - fds[a]) / max(abs(table.s[a, j]), 1.0)
                assert err <= 1e-4

    def test_unit_denominator_computed(self, scenario12, noise_default):
        # Scaling an eigenvector must not change the sensitivity because the
        # quotient carries z^T z explicitly.
        rho, spec = nominal_pipeline(scenario12, noise_default)
        gs = gram_sensitivities(rho)
        scaled = GramSpectrum(
            eigenvalues=spec.eigenvalues,
            eigenvectors=spec.eigenvectors * 3.0,
            ordering=spec.ordering,
        )
        a = eigenvalue_sensitivities(spec, gs).s
        b = eigenvalue_sensitivities(scaled, gs).s
        np.testing.assert_allclose(a, b, rtol=1e-12)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

class TestEigenvalueVariance:
    def test_zero_noise(self):
        assert eigenvalue_variance(np.array([3.0, 4.0]), 0.0) == 0.0

    def test_arithmetic_on_definition(self):
        assert eigenvalue_variance(np.array([3.0, 4.0]), 1.0) == pytest.approx(25.0)

    def test_nondecreasing_in_sigma(self):
        row = RNG.normal(size=12)
        values = [eigenvalue_variance(row, s) for s in np.linspace(0.0, 10.0, 21)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_monte_carlo_variance(self, scenario12, noise_default, lambda_matrix_100k):
        rho, spec = nominal_pipeline(scenario12, noise_default)
        table = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        for pos, col in ((1, 0), (4, 3), (5, 4)):
            analytic = eigenvalue_variance(table.row(pos), noise_default.sigma_v)
            empirical = lambda_matrix_100k[:, col].var(ddof=1)
            assert analytic == pytest.approx(empirical, rel=0.05)


class TestNumeratorMoments:
    def make_table(self, s4, s5):
        s4 = np.asarray(s4, dtype=float)
        s5 = np.asarray(s5, dtype=float)
        return SensitivityTable(
            positions=(4, 5),
            s=np.vstack([s4, s5]),
            nominal=np.array([2.0, -1.0]),
        )

    def test_zero_noise(self):
        table = self.make_table([1.0, 2.0], [3.0, 4.0])
        mom = numerator_moments(table, 2.0, -1.0, 0.0)
        assert mom.mu == 1.0 and mom.sigma == 0.0

    def test_cancellation_through_shared_noise(self):
        table = self.make_table([1.0, -2.0, 0.5], [-1.0, 2.0, -0.5])
        mom = numerator_moments(table, 2.0, -1.0, 3.0)
        assert mom.sigma == 0.0
        assert mom.sigma_independent > 0.0

    def test_matches_monte_carlo(self, scenario12, noise_default, lambda_matrix_100k):
        rho, spec = nominal_pipeline(scenario12, noise_default)
        table = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        mom = numerator_moments(
            table, table.nominal_value(4), table.nominal_value(5), noise_default.sigma_v
        )
        nums = lambda_matrix_100k[:, 3] + lambda_matrix_100k[:, 4]
        assert mom.mu == pytest.approx(nums.mean(), rel=0.05)
        assert mom.sigma == pytest.approx(nums.std(ddof=1), rel=0.05)


class TestRatioGaussian:
    def test_degenerate_sigmas_reduce_to_division(self):
        out = ratio_gaussian(3.0, 0.0, 4.0, 0.0)
        assert out.mu == 0.75 and out.sigma == 0.0 and out.warning is None

    def test_direct_substitution_example(self):
        out = ratio_gaussian(1.0, 0.1, 2.0, 0.2)
        assert out.mu == pytest.approx(0.5, abs=0.0)
        assert out.sigma == pytest.approx(0.07071067811865475, rel=1e-12)

    def test_zero_denominator_mean_fails(self):
        with pytest.raises(ZeroDivisionError):
            ratio_gaussian(1.0, 0.1, 0.0, 0.2)

    def test_validity_guard_warns(self):
        out = ratio_gaussian(1.0, 0.1, 2.0, 0.3)  # cv_y = 0.15
        assert out.warning is not None and "0.1" in out.warning

    def test_sampling_oracle(self):
        # Both coefficients of variation below 0.05: the predicted std must
        # match a million-draw empirical std within 2%.
        mu_x, sigma_x, mu_y, sigma_y = 1000.0, 30.0, 500.0, 20.0
        rng = np.random.default_rng(31415)
        x = rng.normal(mu_x, sigma_x, size=1_000_000)
        y = rng.normal(mu_y, sigma_y, size=1_000_000)
        out = ratio_gaussian(mu_x, sigma_x, mu_y, sigma_y)
        assert out.sigma == pytest.approx((x / y).std(ddof=1), rel=0.02)


# ---------------------------------------------------------------------------
# End-to-end prediction
# ---------------------------------------------------------------------------

class TestPredictQDistribution:
    def test_noiseless_limit(self, scenario12):
        nm = NoiseModel(sigma_v=1e-12, bias_b=1.0e5)
        dist = predict_q_distribution(scenario12, nm)
        _, spec = nominal_pipeline(scenario12, nm)
        w = spec.eigenvalues
        assert dist.mu_q == pytest.approx((w[3] + w[4]) / (2 * w[0]), rel=1e-12)
        assert dist.sigma_q <= 1e-15

    def test_sigma_scaling_is_exactly_linear(self, scenario12):
        d1 = predict_q_distribution(scenario12, NoiseModel(sigma_v=3.0, bias_b=1.0e5))
        d2 = predict_q_distribution(scenario12, NoiseModel(sigma_v=6.0, bias_b=1.0e5))
        assert d2.sigma_q == pytest.approx(2.0 * d1.sigma_q, rel=1e-12)
        assert d2.sigma_num == pytest.approx(2.0 * d1.sigma_num, rel=1e-12)
        assert d2.mu_q == d1.mu_q

    def test_zero_bias_refused(self, scenario12):
        with pytest.raises(DegenerateEigenvalueError, match="bias"):
            predict_q_distribution(scenario12, NoiseModel(sigma_v=3.0, bias_b=0.0))

    def test_inflation_rescues_zero_bias(self, scenario12):
        nm = NoiseModel(sigma_v=3.0, bias_b=0.0, bias_inflation=1.0e5)
        dist = predict_q_distribution(scenario12, nm)
        assert dist.sigma_q > 0

    def test_default_scenario_has_no_warnings(self, scenario12, noise_default):
        dist = predict_q_distribution(scenario12, noise_default)
        assert dist.validity_warnings == ()
        assert dist.ordering == ORDERING_MAGNITUDE

    def test_matches_monte_carlo_10k(self, scenario12, noise_default, mc100k):
        dist = predict_q_distribution(scenario12, noise_default)
        qs = mc100k.q[:10_000]
        assert qs.mean() == pytest.approx(dist.mu_q, rel=0.05)
        assert qs.std(ddof=1) == pytest.approx(dist.sigma_q, rel=0.15)

    def test_agreement_persists_when_bias_doubles(self, scenario12):
        from edmdetect import run_trials

        base = predict_q_distribution(scenario12, NoiseModel(3.0, 1.0e5))
        nm2 = NoiseModel(sigma_v=3.0, bias_b=1.0e5, bias_inflation=1.0e5)
        dist2 = predict_q_distribution(scenario12, nm2)
        assert dist2.mu_q != pytest.approx(base.mu_q, rel=1e-3)
        qs = run_trials(scenario12, nm2, 3000, 7).q
        assert qs.mean() == pytest.approx(dist2.mu_q, rel=0.05)
        assert qs.std(ddof=1) == pytest.approx(dist2.sigma_q, rel=0.15)

    def test_mean_preserved_within_three_standard_errors(
        self, scenario12, noise_default, lambda_matrix_100k
    ):
        # First-order theory: tested at 2,000 trials, where the Monte Carlo
        # standard error still dominates the second-order (quadratic in
        # noise) bias the linearization cannot represent.
        _, spec = nominal_pipeline(scenario12, noise_default)
        lams = lambda_matrix_100k[:2000]
        for pos, col in ((1, 0), (4, 3), (5, 4)):
            nominal = spec.eigenvalues[pos - 1]
            se = lams[:, col].std(ddof=1) / np.sqrt(lams.shape[0])
            assert abs(lams[:, col].mean() - nominal) <= 3.0 * se

    def test_covariance_diagnostic_formula(self, scenario12, noise_default):
        rho, spec = nominal_pipeline(scenario12, noise_default)
        table = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        dist = predict_q_distribution(scenario12, noise_default)
        expected = float(
            np.sum((table.row(4) + table.row(5)) * 2.0 * table.row(1))
            * noise_default.sigma_v**2
        )
        assert dist.covariance_num_den == pytest.approx(expected, rel=1e-12)


class TestDetectionThreshold:
    @staticmethod
    def make_dist(mu=2.0, sigma=0.5):
        return StatisticDistribution(
            mu_num=0.0, sigma_num=0.0, sigma_num_independent=0.0,
            mu_den=1.0, sigma_den=0.0, mu_q=mu, sigma_q=sigma,
            covariance_num_den=0.0, validity_warnings=(), ordering=ORDERING_MAGNITUDE,
        )

    def test_one_sigma_identity(self):
        # p_fa = 2 * (1 - Phi(1)) makes the two-sided pair mu -/+ sigma.
        p = 2.0 * (0.5 * math.erfc(1.0 / math.sqrt(2.0)))
        thr = detection_threshold(self.make_dist(), p)
        assert thr.two_sided_lo == pytest.approx(1.5, abs=1e-9)
        assert thr.two_sided_hi == pytest.approx(2.5, abs=1e-9)

    def test_one_sided_quantile_against_erfc_oracle(self):
        thr = detection_threshold(self.make_dist(), 0.05)
        z = normal_quantile_oracle(0.95)
        assert z == pytest.approx(1.6448536269514722, abs=1e-9)
        assert thr.one_sided_hi == pytest.approx(2.0 + 0.5 * z, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9, -0.1])
    def test_pfa_domain(self, p):
        with pytest.raises(ValueError):
            detection_threshold(self.make_dist(), p)

    def test_degenerate_sigma_flagged(self):
        thr = detection_threshold(self.make_dist(sigma=0.0), 0.01)
        assert thr.degenerate
        assert thr.two_sided_lo == thr.two_sided_hi == thr.one_sided_hi == 2.0


def test_statistic_distribution_json_keys(scenario12, noise_default):
    dist = predict_q_distribution(scenario12, noise_default)
    doc = dist.to_json_dict()
    required = {
        "mu_num", "sigma_num", "mu_den", "sigma_den", "mu_q", "sigma_q",
        "covariance_num_den", "validity_warnings", "ordering",
    }
    assert required <= set(doc)
    assert doc["validity_warnings"] == []
