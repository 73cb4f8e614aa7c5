"""First-order sensitivities, moment propagation, and the ratio approximation.

Oracles used here are independent of the code under test: matrix and
eigenvalue central differences rebuilt from scratch (long-double and mpmath
arithmetic), a brute-force sampling check for the Gaussian ratio, and an
erfc-bisection quantile and a 50-digit erfinv for thresholds.
"""

import math
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from conftest import dense_mp_eigenvalues

from edmdetect import (
    DegenerateEigenvalueError,
    GeometryError,
    NoiseModel,
    ScenarioGeometry,
    SpectrumError,
    centered_gram,
    detection_threshold,
    eigenvalue_sensitivities,
    eigenvalue_variance,
    generate_constellation,
    gram_sensitivities,
    nominal_pseudoranges,
    predict_q_distribution,
    ratio_gaussian,
    spectrum,
    true_ranges,
)
from edmdetect.edm import MAX_LENGTH_M, MIN_LENGTH_M, centering_matrix
from edmdetect.perturbation import TRACKED_DEFAULT, StatisticDistribution

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


def eig_fd_oracle(satellites, rho, j, h, positions):
    """Central difference of tracked eigenvalues, magnitude ordering.

    Both perturbed spectra come from the dense 40-digit reference
    (conftest.dense_mp_eigenvalues), so the oracle shares no numerics with
    the library path.
    """
    with mpmath.workdps(40):
        hm = mpmath.mpf(float(h))
        plus = [mpmath.mpf(float(x)) for x in rho]
        minus = list(plus)
        plus[j] += hm
        minus[j] -= hm
        wp = dense_mp_eigenvalues(satellites, plus)
        wm = dense_mp_eigenvalues(satellites, minus)
        return [float((wp[p - 1] - wm[p - 1]) / (2 * hm)) for p in positions]


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


def derivative_stack(rho):
    """The explicit (m, m+1, m+1) stack dG_j = -rho_j (u c_j^T + c_j u^T) in m^2/m."""
    rho = np.asarray(rho, dtype=float)
    J = centering_matrix(rho.shape[0] + 1)  # u = J e_0 = J[0], c_j = J[j + 1]
    outer = J[0][None, :, None] * J[1:, None, :]
    return -rho[:, None, None] * (outer + np.swapaxes(outer, 1, 2))


def nominal_pipeline(scenario, nm):
    d = true_ranges(scenario)
    rho = nominal_pseudoranges(d, nm).rho
    return rho, spectrum(centered_gram(scenario.satellites, rho))


# ---------------------------------------------------------------------------
# Gram sensitivities
# ---------------------------------------------------------------------------

class TestGramSensitivities:
    # The library contracts dG_j in closed form; these pin the explicit
    # stack that TestEigenvalueSensitivities uses as its reference.
    def test_zero_rho_gives_zero_matrices(self):
        assert np.all(derivative_stack(np.zeros(6)) == 0.0)

    def test_each_matrix_is_centered_and_symmetric(self, scenario12, noise_default):
        rho = nominal_pseudoranges(true_ranges(scenario12), noise_default).rho
        ones = np.ones(scenario12.m + 1)
        for M in derivative_stack(rho):
            np.testing.assert_array_equal(M, M.T)
            assert np.linalg.norm(M @ ones) <= 1e-9 * np.linalg.norm(M)

    def test_matches_explicit_projector_construction(self):
        # dG_j must equal -1/2 J E_j J with E_j holding 2 rho_j at (0, j+1).
        rho = np.array([3.0, 7.0, 2.0, 11.0, 5.0])
        m = rho.shape[0]
        J = centering_matrix(m + 1)
        stack = derivative_stack(rho)
        for j in range(m):
            E = np.zeros((m + 1, m + 1))
            E[0, j + 1] = E[j + 1, 0] = 2.0 * rho[j]
            np.testing.assert_allclose(stack[j], -0.5 * J @ E @ J, atol=1e-14)

    def test_finite_difference_small_scale(self):
        # Synthetic km-scale points keep the float64 difference clean.
        sats = RNG.normal(scale=2e3, size=(6, 3))
        rho = np.abs(RNG.normal(loc=3e3, scale=300, size=6))
        stack = derivative_stack(rho)
        for j in range(6):
            fd = matrix_fd_oracle(sats, rho, j, 1e-3)
            scale = np.abs(stack[j]).max()
            np.testing.assert_allclose(stack[j], fd, atol=1e-6 * scale, rtol=1e-6)

    def test_finite_difference_gps_scale(self, scenario12, noise_default):
        # At 1e7-meter ranges the oracle needs long-double headroom; the
        # derivative itself is exact for the quadratic entries.
        rho = nominal_pseudoranges(true_ranges(scenario12), noise_default).rho
        stack = derivative_stack(rho)
        for j in (0, 5, 11):
            fd = matrix_fd_oracle(scenario12.satellites, rho, j, 1e-3, np.longdouble)
            err = np.abs(stack[j] - fd) / np.maximum(np.abs(stack[j]), 1e-300)
            assert err.max() <= 1e-6


# ---------------------------------------------------------------------------
# Eigenvalue sensitivities
# ---------------------------------------------------------------------------

def diag_spectrum(values):
    return np.array(values, dtype=float), np.eye(len(values))


class TestEigenvalueSensitivities:
    def test_zero_perturbation_gives_zero_rows(self, scenario12, noise_default):
        _, spec = nominal_pipeline(scenario12, noise_default)
        s, _ = eigenvalue_sensitivities(spec, gram_sensitivities(np.zeros(scenario12.m)))
        assert np.all(s == 0.0)

    @pytest.mark.parametrize("m, mask", [(5, 10.0), (12, 10.0), (30, 5.0), (60, 5.0)])
    def test_closed_form_matches_tensor_contraction(self, m, mask, noise_default):
        # Reference: z^T dG_j z / z^T z from the explicit derivative stack.
        # Tolerance, fixed in advance: 1e-12 relative, floor 1 m^2/m, on
        # every tracked row and every satellite.
        g = generate_constellation(m, mask, seed=1)
        rho, spec = nominal_pipeline(g, noise_default)
        s, _ = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        stack = derivative_stack(rho)
        for a, pos in enumerate(TRACKED_DEFAULT):
            z = spec[1][:, pos - 1]
            ref = np.array([z @ stack[j] @ z / (z @ z) for j in range(m)])
            err = np.abs(s[a] - ref) / np.maximum(np.abs(ref), 1.0)
            assert err.max() <= 1e-12, (pos, err.max())

    def test_degenerate_eigenvalue_refused(self):
        # Positions 4 and 5 lie 1e-13 apart, inside the 5e-12 gap floor.
        spec = diag_spectrum([5.0, 4.0, 3.0, 2.0, 2.0 + 1e-13])
        with pytest.raises(DegenerateEigenvalueError, match="position 4 .*bias"):
            eigenvalue_sensitivities(spec, np.ones(4))

    def test_matches_eigenvalue_finite_differences(self, scenario12, noise_default):
        # h = 1e-3 m central differences through the full pipeline must agree
        # to 1e-4 relative (floor 1 m^2/m) on every tracked entry.
        rho, spec = nominal_pipeline(scenario12, noise_default)
        s, _ = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        for j in range(scenario12.m):
            fds = eig_fd_oracle(scenario12.satellites, rho, j, 1e-3, (1, 4, 5))
            for a in range(3):
                err = abs(s[a, j] - fds[a]) / max(abs(s[a, j]), 1.0)
                assert err <= 1e-4

    def test_unit_denominator_computed(self, scenario12, noise_default):
        # Scaling an eigenvector must not change the sensitivity because the
        # quotient carries z^T z explicitly.
        rho, spec = nominal_pipeline(scenario12, noise_default)
        gs = gram_sensitivities(rho)
        w, V = spec
        a, _ = eigenvalue_sensitivities(spec, gs)
        b, _ = eigenvalue_sensitivities((w, V * 3.0), gs)
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
        s, _ = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        for row, col in zip(s, (0, 3, 4)):
            analytic = eigenvalue_variance(row, noise_default.sigma_v)
            empirical = lambda_matrix_100k[:, col].var(ddof=1)
            assert analytic == pytest.approx(empirical, rel=0.05)


class TestPredictedNumerator:
    # predict_q_distribution forms the numerator lambda_4 + lambda_5 itself:
    # its mean from the nominal values, its spread from the combined row s4 + s5.
    def test_zero_noise(self):
        assert eigenvalue_variance(np.array([1.0, 2.0, 4.0]), 0.0) == 0.0

    def test_cancellation_through_shared_noise(self, scenario12, noise_default):
        # Opposite rows cancel in the combined form ...
        s4 = np.array([1.0, -2.0, 0.5])
        assert eigenvalue_variance(s4 + -s4, 3.0) == 0.0
        # ... and the prediction's sigma_num is that form's, bit for bit, not
        # the sum of the two variances that independent eigenvalues would give.
        rho, spec = nominal_pipeline(scenario12, noise_default)
        (_, s4, s5), nominal = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        sigma = noise_default.sigma_v
        dist = predict_q_distribution(scenario12, noise_default)
        assert dist.mu_num == float(nominal[1] + nominal[2])
        assert dist.sigma_num == np.sqrt(eigenvalue_variance(s4 + s5, sigma))
        independent = np.sqrt(
            eigenvalue_variance(s4, sigma) + eigenvalue_variance(s5, sigma)
        )
        assert dist.sigma_num != pytest.approx(independent, rel=1e-6)

    def test_matches_monte_carlo(self, scenario12, noise_default, lambda_matrix_100k):
        dist = predict_q_distribution(scenario12, noise_default)
        nums = lambda_matrix_100k[:, 3] + lambda_matrix_100k[:, 4]
        assert dist.mu_num == pytest.approx(nums.mean(), rel=0.05)
        assert dist.sigma_num == pytest.approx(nums.std(ddof=1), rel=0.05)


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
        w, _ = spec
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

    def test_default_scenario_has_no_warnings(self, scenario12, noise_default):
        dist = predict_q_distribution(scenario12, noise_default)
        assert dist.validity_warnings == ()
        assert "ordering" not in dist.to_json_dict()

    def test_matches_monte_carlo_10k(self, scenario12, noise_default, mc100k):
        dist = predict_q_distribution(scenario12, noise_default)
        qs = mc100k.q[:10_000]
        assert qs.mean() == pytest.approx(dist.mu_q, rel=0.05)
        assert qs.std(ddof=1) == pytest.approx(dist.sigma_q, rel=0.15)

    def test_agreement_persists_when_bias_doubles(self, scenario12):
        from edmdetect import run_trials

        base = predict_q_distribution(scenario12, NoiseModel(3.0, 1.0e5))
        nm2 = NoiseModel(sigma_v=3.0, bias_b=2.0e5)
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
            nominal = spec[0][pos - 1]
            se = lams[:, col].std(ddof=1) / np.sqrt(lams.shape[0])
            assert abs(lams[:, col].mean() - nominal) <= 3.0 * se

    def test_covariance_diagnostic_formula(self, scenario12, noise_default):
        rho, spec = nominal_pipeline(scenario12, noise_default)
        (s1, s4, s5), _ = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
        dist = predict_q_distribution(scenario12, noise_default)
        expected = float(
            np.sum((s4 + s5) * 2.0 * s1)
            * noise_default.sigma_v**2
        )
        assert dist.covariance_num_den == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [5, 12, 30])
    @pytest.mark.parametrize("scale", [MIN_LENGTH_M, 2.0**24, 2.0**180])
    def test_noise_at_max_length_gives_finite_moments_or_a_typed_error(self, m, scale):
        # sigma_v = MAX_LENGTH_M, with the default bias scaled to L and with
        # the largest bias: the moments are finite or the input is refused
        # with a typed error, as nothing checks for overflow after the fact.
        g = generate_constellation(m, 10.0, seed=m)
        s = scale / g.length_scale
        g = ScenarioGeometry(g.receiver * s, g.satellites * s)
        for bias in (1.0e5 * s, MAX_LENGTH_M):
            try:
                dist = predict_q_distribution(g, NoiseModel(MAX_LENGTH_M, bias))
            except (DegenerateEigenvalueError, GeometryError, SpectrumError, ZeroDivisionError):
                continue
            values = [v for v in asdict(dist).values() if isinstance(v, float)]
            assert len(values) == 7 and np.all(np.isfinite(values))


class TestDetectionThreshold:
    @staticmethod
    def make_dist(mu=2.0, sigma=0.5):
        return StatisticDistribution(
            mu_num=0.0, sigma_num=0.0,
            mu_den=1.0, sigma_den=0.0, mu_q=mu, sigma_q=sigma,
            covariance_num_den=0.0, validity_warnings=(),
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

    @pytest.mark.parametrize("p", [1e-2, 1e-3, 1e-5, 1e-7])
    def test_upper_tail_quantile_against_erfinv_oracle(self, p):
        # Oracle: z(p) = sqrt(2) erfinv(1 - 2p) at 50 digits. Tolerance, fixed
        # in advance: 1e-15 relative. Phi^-1(1 - p) misses it at p_fa = 1e-3
        # and below, where rounding 1 - p to a double loses the tail's digits.
        thr = detection_threshold(self.make_dist(mu=0.0, sigma=1.0), p)
        with mpmath.workdps(50):
            for z, tail in ((thr.one_sided_hi, p), (thr.two_sided_hi, p / 2),
                            (-thr.two_sided_lo, p / 2)):
                ref = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(tail))
                assert abs(z - ref) <= 1e-15 * ref, (z, tail)

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9, -0.1, 5e-324])
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
        "covariance_num_den", "validity_warnings",
    }
    assert required <= set(doc)
    assert doc["validity_warnings"] == []
