"""Trial harness: determinism, summaries, fault injection, and the FD audit."""

import json
import math
import tracemalloc
from dataclasses import fields, replace
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import MASTER_SEED, dense_mp_eigenvalues
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edmdetect import (
    NoiseModel,
    PseudorangeSample,
    ScenarioGeometry,
    SpectrumError,
    centered_gram,
    generate_constellation,
    inject_fault,
    predict_q_distribution,
    run_trials,
    sample_pseudoranges,
    spectrum,
    summarize,
    test_statistic as q_statistic,
    true_ranges,
)
from edmdetect import audit, centered_gram_eigvals
from edmdetect.audit import (
    _jacobi_eigenvalues,
    _rank5_oracle,
    finite_difference_audit,
    relative_discrepancy,
)
from edmdetect import edm
from edmdetect.edm import _order_indices
from edmdetect.montecarlo import (
    _BLOCK,
    _ERFC,
    _SQRT2,
    SimulationSummary,
    TrialBatch,
    _fd_bin_count,
    _ks_statistic,
    block_noise,
    ks_critical_value,
    noise_key,
    write_histogram_csv,
    write_summary_json,
    write_trials_csv,
)
from edmdetect.perturbation import StatisticDistribution

# Writer outputs for TestWriters.make_summary's batch, written by the
# record-based writers that preceded TrialBatch.
GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_PROVENANCE = {
    "master_seed": 42, "p_fa": 0.01, "scenario_file": "", "trials": 200,
}


def q_of_sample(scenario, sample):
    return q_statistic(spectrum(centered_gram(scenario.satellites, sample.rho)))


def synthetic_batch(qs, lams=None):
    qs = np.asarray(qs, dtype=float)
    if lams is None:
        lams = np.zeros((qs.shape[0], 5))
    return TrialBatch(q=qs, lambdas=lams, exceeded=None)


def gaussian_dist(mu, sigma):
    return StatisticDistribution(
        mu_num=0.0, sigma_num=0.0,
        mu_den=1.0, sigma_den=0.0, mu_q=mu, sigma_q=sigma,
        covariance_num_den=0.0, validity_warnings=(),
    )


def ks_reference(sample, mu, sigma):
    """The KS distance in one shot: an n-long object array of Python floats."""
    x = np.sort(sample)
    n = x.shape[0]
    F = 0.5 * _ERFC(-((x - mu) / sigma) / _SQRT2).astype(float)
    i = np.arange(1, n + 1)
    return float(max((i / n - F).max(), (F - (i - 1) / n).max()))


def summarize_reference(batch, dist, threshold=None):
    """summarize from numpy's one-shot expressions: the oracle of its bits.

    np.corrcoef on the column stack, lambdas.var's (n, 5) temporary and
    ks_reference's object array take about 96 B/trial beyond the batch.
    """
    n = len(batch)
    qs, lams = batch.q, batch.lambdas
    q_std = float(qs.std(ddof=1))
    degenerate = q_std == 0.0 or dist.sigma_q == 0.0
    edges = np.histogram_bin_edges(qs, bins=_fd_bin_count(qs))
    if threshold is not None:
        rate = float(np.mean(qs > threshold))
    elif batch.exceeded is not None:
        rate = float(np.mean(batch.exceeded))
    else:
        rate = None
    cols = np.column_stack([lams[:, 0], lams[:, 3], lams[:, 4], lams[:, 3] + lams[:, 4]])
    ok = cols.std(axis=0, ddof=1) > 0
    corr = np.eye(4)
    if ok.any():
        corr[np.ix_(ok, ok)] = np.atleast_2d(np.corrcoef(cols[:, ok], rowvar=False))
    return SimulationSummary(
        n_trials=n,
        q_mean=float(qs.mean()),
        q_std=q_std,
        lambda_mean=lams.mean(axis=0),
        lambda_var=lams.var(axis=0, ddof=1),
        hist_edges=edges,
        hist_counts=np.histogram(qs, bins=edges)[0],
        ks_statistic=1.0 if degenerate else ks_reference(qs, dist.mu_q, dist.sigma_q),
        ks_critical_5pct=ks_critical_value(0.05, n),
        ks_critical_1pct=ks_critical_value(0.01, n),
        false_alarm_rate=rate,
        correlation=corr,
        degenerate=degenerate,
        predicted=dist,
    )


# The summary fields that summarize does not take from numpy's one-shot
# expressions; the exact-sum oracles below check them instead.
EIGEN_FIELDS = ("lambda_mean", "lambda_var", "correlation")


def assert_same_bits(got, want, skip=()):
    for field in fields(want):
        if field.name in skip:
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is None or field.name == "predicted":
            assert a is b, field.name
            continue
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), (field.name, a, b)


def eigen_columns(lams):
    """[lambda1..lambda5, lambda4 + lambda5], the last the rounded sum of each row."""
    return [lams[:, j] for j in range(5)] + [lams[:, 3] + lams[:, 4]]


def exact_eigen_moments(lams):
    """Means, variances (Fractions) and the (4, 4) correlation from exact sums.

    A column's doubles are integer multiples of its smallest power-of-two
    denominator 1 / scale, so its sum S and every cross sum Q are exact
    Python ints, and n (n - 1) cov = (n Q - S S^T) / (scale scale^T). The
    scales cancel in the correlation, which is rounded once from its exact
    square. Columns with zero variance keep the identity's row and column.
    """
    n = lams.shape[0]
    ints, scales = [], []
    for col in eigen_columns(lams):
        ratios = [v.as_integer_ratio() for v in col.tolist()]
        scale = max(q for _, q in ratios)
        ints.append([p * (scale // q) for p, q in ratios])
        scales.append(scale)
    S = [sum(c) for c in ints]

    def ncov(i, j):
        return n * sum(a * b for a, b in zip(ints[i], ints[j])) - S[i] * S[j]

    mean = [Fraction(S[i], n * scales[i]) for i in range(5)]
    var = [Fraction(ncov(i, i), n * (n - 1) * scales[i] ** 2) for i in range(5)]
    cols = (0, 3, 4, 5)
    diag = [ncov(i, i) for i in cols]
    corr = np.eye(4)
    for a, i in enumerate(cols):
        for b, j in enumerate(cols):
            if a != b and diag[a] and diag[b]:
                c = ncov(i, j)
                corr[a, b] = math.copysign(math.sqrt(Fraction(c * c, diag[a] * diag[b])), c)
    return mean, var, corr


def fsum_eigen_moments(lams):
    """Means, variances and correlation from math.fsum of the deviations
    from each column's rounded mean: a reference for runs too long for
    exact sums."""
    n = lams.shape[0]
    cols = eigen_columns(lams)
    mean = [math.fsum(c.tolist()) / n for c in cols]
    dev = [c - m for c, m in zip(cols, mean)]

    def cov(i, j):
        return math.fsum((dev[i] * dev[j]).tolist()) / (n - 1)

    var = [cov(i, i) for i in range(6)]
    corr = np.eye(4)
    for a, i in enumerate((0, 3, 4, 5)):
        for b, j in enumerate((0, 3, 4, 5)):
            if a != b and var[i] and var[j]:
                corr[a, b] = cov(i, j) / math.sqrt(var[i] * var[j])
    return mean[:5], var[:5], corr


def assert_eigen_moments_within(summary, lams, oracle, var_rel, corr_abs):
    """lambda_mean within 1e-14 of its column's largest magnitude, lambda_var
    within ``var_rel`` (exactly 0 where the oracle's is), each correlation
    within ``corr_abs``; the matrix symmetric with a unit diagonal, bit for bit."""
    mean, var, corr = oracle(lams)
    for j in range(5):
        scale = float(np.abs(lams[:, j]).max())
        assert abs(Fraction(float(summary.lambda_mean[j])) - Fraction(mean[j])) <= 1e-14 * scale, j
        got = float(summary.lambda_var[j])
        if var[j] == 0:
            assert got == 0.0, j
        else:
            assert abs(Fraction(got) - Fraction(var[j])) <= var_rel * abs(Fraction(var[j])), j
    assert np.all(np.abs(summary.correlation - corr) <= corr_abs), (summary.correlation, corr)
    assert np.array_equal(summary.correlation, summary.correlation.T)
    assert np.array_equal(np.diag(summary.correlation), np.ones(4))


def edge_batch(edge):
    """One of the summary's edge cases: 2500 seeded trials, with its columns altered."""
    rng = np.random.default_rng(3)
    n = 2500
    qs = rng.normal(0.3, 0.07, n)
    lams = rng.normal(size=(n, 5)) * [4e14, 3e14, 2e14, 1e3, -1e3]
    if edge.startswith("constant_lambda5"):
        lams[:, 4] = float(edge.rsplit("_", 1)[1])
    elif edge == "zero_sum_column":
        lams[:, 4] = -lams[:, 3]
    elif edge == "constant_q":
        qs[:] = 1.25
    else:
        lams[:, 1:] = 0.0
    return synthetic_batch(qs, lams)


EDGES = ["constant_lambda5_0.5", "constant_lambda5_0.1", "zero_sum_column", "constant_q",
         "only_lambda1_varies"]
PREFIXES = [2, 3, 1023, 1024, 1025, 65_536, 100_000]


@pytest.fixture(scope="module")
def small_scenario():
    return generate_constellation(6, 15.0, seed=11)


@pytest.fixture(scope="module")
def scenario30():
    return generate_constellation(30, 5.0, seed=1)


@pytest.fixture(scope="module")
def coplanar_scenario():
    # Nine satellites on the circle where the orbit sphere meets the plane
    # z = 2e7 m, seen from the north pole at about 38 degrees elevation. The
    # receiver is off that plane, so the geometry is valid; the plane misses
    # the origin (the receiver slot of the centered Gram), so u = J e0 lies in
    # span(A) and the centered Gram has rank 4.
    z = 2.0e7
    radius = np.sqrt(26_560_000.0**2 - z**2)
    phi = np.sort(np.random.default_rng(5).uniform(0.0, 2 * np.pi, 9))
    sats = np.column_stack([radius * np.cos(phi), radius * np.sin(phi), np.full(9, z)])
    return ScenarioGeometry(receiver=np.array([0.0, 0.0, 6_371_000.0]), satellites=sats)


class TestRunTrials:
    def test_deterministic_per_master_seed(self, small_scenario):
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        a = run_trials(small_scenario, nm, 300, 5)
        b = run_trials(small_scenario, nm, 300, 5)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_prefix_property(self, small_scenario):
        # Counter-based block noise makes any run a bit-exact prefix of a longer one.
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        short = run_trials(small_scenario, nm, 50, 5)
        long = run_trials(small_scenario, nm, 120, 5)
        assert np.array_equal(short.q, long.q[:50])

    def test_trial_q_depends_only_on_seed_and_trial_index(self, small_scenario):
        # Run length, block boundaries and seeds wider than the 128-bit
        # Philox key change nothing about trial t's statistic.
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        refs = []
        for seed in (13, 2**128 + 13):
            ref = run_trials(small_scenario, nm, 9000, seed)
            for n in (1023, 1024, 1025, 4095, 4096, 4097):
                assert np.array_equal(run_trials(small_scenario, nm, n, seed).q, ref.q[:n])
            refs.append(ref.q)
        assert not np.array_equal(refs[0], refs[1])

    def test_noiseless_unbiased_trial_gives_zero_statistic(self, small_scenario):
        nm = NoiseModel(sigma_v=1e-12, bias_b=0.0)
        batch = run_trials(small_scenario, nm, 1, 0)
        assert len(batch) == 1
        assert abs(batch.q[0]) <= 1e-12

    def test_threshold_marking(self, small_scenario):
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        batch = run_trials(small_scenario, nm, 64, 5, threshold=0.0)
        assert batch.exceeded is not None
        assert batch.exceeded.dtype == bool
        assert np.array_equal(batch.exceeded, batch.q > 0.0)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_requires_positive_trial_count(self, small_scenario, bad):
        with pytest.raises(ValueError):
            run_trials(small_scenario, NoiseModel(3.0, 1e5), bad, 1)

    def test_rejects_bad_ordering_and_seed(self, small_scenario):
        nm = NoiseModel(3.0, 1e5)
        with pytest.raises(ValueError):
            run_trials(small_scenario, nm, 2, -1)

    def test_zero_leading_eigenvalue_aborts_with_trial_index(
        self, small_scenario, monkeypatch
    ):
        # Every root certified at zero: the guard, not the solver, must stop it.
        monkeypatch.setattr(
            edm, "_secular_roots",
            lambda f, alpha, h0, z2, ws: (np.zeros((5, alpha.size)), np.ones(alpha.size, bool)),
        )
        with pytest.raises(SpectrumError, match="trial 0"):
            run_trials(small_scenario, NoiseModel(3.0, 1e5), 4, 1)

    def test_non_positive_pseudoranges_raise_value_error(self, small_scenario):
        # A bias that drives some pseudoranges to or below zero is a typed
        # error, never a batch of NaNs.
        d = true_ranges(small_scenario)
        nm = NoiseModel(sigma_v=3.0, bias_b=-float(np.median(d)))
        with pytest.raises(ValueError, match="positive"):
            run_trials(small_scenario, nm, 10, 1)


class TestSummarize:
    def test_moment_recovery_within_three_standard_errors(self):
        rng = np.random.default_rng(99)
        mu, sigma, n = 4.0, 0.25, 4000
        qs = rng.normal(mu, sigma, size=n)
        summary = summarize(synthetic_batch(qs), gaussian_dist(mu, sigma))
        se_mean = sigma / np.sqrt(n)
        se_std = sigma / np.sqrt(2 * n)
        assert abs(summary.q_mean - mu) <= 3 * se_mean
        assert abs(summary.q_std - sigma) <= 3 * se_std

    def test_self_sampling_ks_oracle(self):
        # Samples drawn from the reference Gaussian itself must pass the 1%
        # KS gate nearly always; require >= 95% of 40 repetitions.
        rng = np.random.default_rng(123)
        passes = 0
        for _ in range(40):
            qs = rng.normal(0.3, 0.07, size=1000)
            s = summarize(synthetic_batch(qs), gaussian_dist(0.3, 0.07))
            passes += s.ks_statistic < s.ks_critical_1pct
        assert passes >= 38

    def test_degenerate_sample_flagged(self):
        qs = np.full(50, 1.25)
        s = summarize(synthetic_batch(qs), gaussian_dist(1.25, 0.1))
        assert s.degenerate
        assert s.q_std == 0.0
        assert s.ks_statistic == 1.0

    @pytest.mark.parametrize("shift", [0.0, 0.3])
    def test_ks_statistic_against_mpmath_oracle(self, shift):
        # Oracle: the same distance with Phi from mpmath.ncdf at 40 digits.
        # Tolerance, fixed in advance: 1e-15 absolute. The sample reaches past
        # |z| = 8 in both tails, where Phi or 1 - Phi falls below 1e-15.
        import mpmath

        mu, sigma = 0.3, 0.07
        rng = np.random.default_rng(31)
        tails = mu + sigma * np.array([-40.0, -12.0, -8.5, 8.5, 12.0, 40.0])
        qs = np.concatenate([rng.normal(mu + shift * sigma, sigma, size=2000), tails])
        x = np.sort(qs)
        n = x.shape[0]
        with mpmath.workdps(40):
            F = [mpmath.ncdf(mpmath.mpf(float(v)), mu, sigma) for v in x]
            ref = max(max((i + 1) / mpmath.mpf(n) - f, f - mpmath.mpf(i) / n)
                      for i, f in enumerate(F))
            assert abs(_ks_statistic(qs, mu, sigma) - ref) <= 1e-15

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(2, 20_000),
        seed=st.integers(0, 2**32 - 1),
        quantum=st.sampled_from([0.0, 0.01, 0.5]),
        run=st.floats(0.0, 0.9),
        shift=st.floats(-8.0, 8.0),
        scale=st.floats(0.2, 5.0),
    )
    @example(n=20_000, seed=1, quantum=0.0, run=0.0, shift=-8.0, scale=1.0)
    @example(n=20_000, seed=1, quantum=0.0, run=0.0, shift=8.0, scale=1.0)
    @example(n=20_000, seed=2, quantum=0.0, run=0.0, shift=-0.5, scale=1.0)
    @example(n=20_000, seed=3, quantum=0.0, run=0.0, shift=0.5, scale=1.0)
    @example(n=5_000, seed=4, quantum=0.01, run=0.2, shift=-0.1, scale=1.1)
    @example(n=5_000, seed=5, quantum=0.01, run=0.2, shift=0.1, scale=0.9)
    @example(n=2, seed=1, quantum=0.0, run=0.0, shift=0.0, scale=1.0)
    def test_pruned_ks_walk_equals_the_full_walk(self, n, seed, quantum, run, shift, scale):
        # The pruned walk skips blocks whose bounds cannot raise a maximum;
        # its distance must be, bit for bit, that of ks_reference, which
        # evaluates every value. Samples carry ties (values rounded to a
        # quantum of sigma) and a constant run over a share of the sorted
        # values; the model's mean is off by up to 8 sigma, which puts the
        # maximum at the first or the last sorted value.
        mu, sigma = 0.3, 0.07
        x = np.sort(np.random.default_rng(seed).normal(mu, sigma, n))
        if quantum:
            x = np.round(x / (quantum * sigma)) * (quantum * sigma)
        k = int(run * n)
        x[n // 3 : n // 3 + k] = x[n // 3]
        model = (mu + shift * sigma, sigma * scale)
        assert _ks_statistic(x[::-1], *model) == ks_reference(x, *model)

    def test_histogram_partitions_sample(self):
        rng = np.random.default_rng(5)
        qs = rng.normal(size=3000)
        s = summarize(synthetic_batch(qs), gaussian_dist(0.0, 1.0))
        assert s.hist_counts.sum() == 3000
        assert np.all(np.diff(s.hist_edges) > 0)

    def test_fd_bin_count_gives_numpy_fd_edges(self, mc100k):
        # The Freedman-Diaconis count without np.percentile: the edges of
        # np.histogram_bin_edges(x, bins="fd") bit for bit, on seeded samples
        # of 2..3000 values (a third of them full of ties) and on the default
        # 100k-trial q sample.
        rng = np.random.default_rng(77)
        samples = [mc100k.q]
        for t in range(600):
            n = int(rng.integers(2, 3001))
            if t % 3 == 0:
                x = rng.integers(-3, 4, n) * rng.choice([1.0, 1e-7, 3.3])
            elif t % 3 == 1:
                x = rng.standard_cauchy(n) * 10.0 ** rng.uniform(-10, 10)
            else:
                x = rng.normal(5e-4, 1e-8, n)
            samples.append(x)
        for x in samples:
            fd = np.histogram_bin_edges(x, bins="fd")
            got = np.histogram_bin_edges(x, bins=_fd_bin_count(x))
            assert got.shape == fd.shape and np.array_equal(got, fd), x.size

    @pytest.mark.parametrize("n", PREFIXES)
    def test_same_bits_as_numpy_one_shot(self, mc100k, scenario12, noise_default, n):
        # The default run's prefixes (a prefix is a shorter run, bit for
        # bit), across the _BLOCK boundaries of the chunked reductions.
        # Every field but EIGEN_FIELDS, which the exact-sum tests check.
        dist = predict_q_distribution(scenario12, noise_default)
        batch = TrialBatch(q=mc100k.q[:n], lambdas=mc100k.lambdas[:n], exceeded=None)
        assert_same_bits(summarize(batch, dist), summarize_reference(batch, dist), skip=EIGEN_FIELDS)

    @pytest.mark.parametrize("edge", EDGES)
    def test_same_bits_as_numpy_one_shot_on_edge_batches(self, edge):
        # Constant columns, lambda5 = -lambda4 (an exactly zero sum column),
        # a constant q, which is degenerate (KS = 1), and a single varying
        # column. Every field but EIGEN_FIELDS, as above.
        batch = edge_batch(edge)
        dist = gaussian_dist(0.3, 0.07)
        got = summarize(batch, dist, threshold=0.35)
        assert_same_bits(got, summarize_reference(batch, dist, threshold=0.35), skip=EIGEN_FIELDS)
        if edge == "constant_q":
            assert got.degenerate and got.ks_statistic == 1.0
        if edge == "zero_sum_column":
            assert np.array_equal(got.correlation[3], np.eye(4)[3])

    @pytest.mark.parametrize("n", PREFIXES)
    def test_eigen_moments_match_exact_sums(self, mc100k, n):
        # Bounds, fixed in advance. Up to 1,025 trials, against exact
        # integer sums: means 1e-14 of the column's largest magnitude,
        # variances 1e-13 relative, correlations 1e-13 absolute. Beyond,
        # against math.fsum of the deviations from the rounded mean:
        # variances 1e-12 relative, correlations 1e-12 absolute. numpy's
        # one-shot lambda1 variance misses the first by 3e-11 at n = 8,192.
        lams = mc100k.lambdas[:n]
        summary = summarize(synthetic_batch(mc100k.q[:n], lams), gaussian_dist(0.0, 1.0))
        if n <= 1025:
            assert_eigen_moments_within(summary, lams, exact_eigen_moments, 1e-13, 1e-13)
        else:
            assert_eigen_moments_within(summary, lams, fsum_eigen_moments, 1e-12, 1e-12)

    @pytest.mark.parametrize("edge", EDGES)
    def test_eigen_moments_match_exact_sums_on_edge_batches(self, edge):
        # A constant column, even of 0.1, has exactly zero variance.
        batch = edge_batch(edge)
        summary = summarize(batch, gaussian_dist(0.3, 0.07), threshold=0.35)
        assert_eigen_moments_within(summary, batch.lambdas, exact_eigen_moments, 1e-13, 1e-13)

    def test_correlation_matrix_shape(self, mc100k):
        # Symmetric bit for bit with an exactly unit diagonal, on a synthetic
        # batch and on the default 100k-trial run.
        rng = np.random.default_rng(8)
        batches = [synthetic_batch(rng.normal(size=500), rng.normal(size=(500, 5))), mc100k]
        for batch in batches:
            s = summarize(batch, gaussian_dist(0.0, 1.0))
            assert s.correlation.shape == (4, 4)
            assert np.array_equal(np.diag(s.correlation), np.ones(4))
            assert np.array_equal(s.correlation, s.correlation.T)
            assert np.all(np.abs(s.correlation) <= 1.0)

    def test_false_alarm_rate_from_threshold(self):
        qs = np.array([0.1, 0.2, 0.3, 0.4])
        s = summarize(synthetic_batch(qs), gaussian_dist(0.25, 0.1), threshold=0.25)
        assert s.false_alarm_rate == 0.5

    def test_requires_two_records(self):
        with pytest.raises(ValueError):
            summarize(synthetic_batch([1.0]), gaussian_dist(1.0, 0.1))

    def test_ks_critical_values_match_asymptotic_form(self):
        # Tabulated coefficients: 1.358 (5%), 1.628 (1%).
        assert ks_critical_value(0.05, 10_000) == pytest.approx(
            1.358 / np.sqrt(10_000), rel=2e-3
        )
        assert ks_critical_value(0.01, 10_000) == pytest.approx(
            1.628 / np.sqrt(10_000), rel=2e-3
        )


class TestInjectFault:
    def test_zero_fault_is_identity_on_values(self, small_scenario):
        d = true_ranges(small_scenario)
        sample = sample_pseudoranges(d, NoiseModel(3.0, 1e5), seed=2)
        faulted = inject_fault(sample, 2, 0.0)
        assert np.array_equal(faulted.rho, sample.rho)
        assert faulted.rho is not sample.rho

    def test_index_out_of_range(self, small_scenario):
        d = true_ranges(small_scenario)
        sample = sample_pseudoranges(d, NoiseModel(3.0, 1e5), seed=2)
        for bad in (-1, small_scenario.m, True, False, 1.0):
            with pytest.raises(IndexError):
                inject_fault(sample, bad, 100.0)

    def test_numpy_integer_index_is_taken(self, small_scenario):
        sample = sample_pseudoranges(true_ranges(small_scenario), NoiseModel(3.0, 1e5), seed=2)
        faulted = inject_fault(sample, np.int64(1), 100.0)
        assert np.array_equal(faulted.rho, inject_fault(sample, 1, 100.0).rho)
        assert np.flatnonzero(faulted.rho != sample.rho).tolist() == [1]

    @pytest.mark.parametrize("bias", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_fault_bias_is_refused(self, small_scenario, bias):
        sample = sample_pseudoranges(true_ranges(small_scenario), NoiseModel(3.0, 1e5), seed=2)
        with pytest.raises(ValueError, match="finite"):
            inject_fault(sample, 0, bias)

    def test_fault_commutes_with_satellite_permutation(self, small_scenario):
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        d = true_ranges(small_scenario)
        sample = sample_pseudoranges(d, nm, seed=6)
        q_direct = q_of_sample(small_scenario, inject_fault(sample, 1, 750.0))

        perm = np.array([3, 1, 4, 0, 5, 2])
        permuted_scenario = type(small_scenario)(
            receiver=small_scenario.receiver,
            satellites=small_scenario.satellites[perm],
        )
        permuted_sample = type(sample)(
            rho=sample.rho[perm], d_true=sample.d_true[perm], v=sample.v[perm],
        )
        new_index = int(np.where(perm == 1)[0][0])
        q_permuted = q_of_sample(
            permuted_scenario, inject_fault(permuted_sample, new_index, 750.0)
        )
        assert q_permuted == pytest.approx(q_direct, rel=1e-9)

    def test_large_fault_mostly_exceeds_nominal_threshold(self, scenario12, noise_default):
        from edmdetect import detection_threshold

        dist = predict_q_distribution(scenario12, noise_default)
        thr = detection_threshold(dist, 0.01)
        d = true_ranges(scenario12)
        exceed = 0
        n = 200
        for t in range(n):
            sample = sample_pseudoranges(d, noise_default, np.random.SeedSequence([400, t]))
            q = q_of_sample(scenario12, inject_fault(sample, 3, 1000.0))
            exceed += q > thr.one_sided_hi
        assert exceed > n // 2


class TestFiniteDifferenceAudit:
    def test_identical_tables_give_exact_zero(self):
        table = np.zeros((3, 12))
        assert np.all(relative_discrepancy(table, table, 1.0) == 0.0)
        assert relative_discrepancy(np.array([5.0]), np.array([5.0]), 1.0)[0] == 0.0

    def test_floor_applies_below_unit_magnitude(self):
        out = relative_discrepancy(np.array([1e-8]), np.array([2e-8]), 1.0)
        assert out[0] == pytest.approx(1e-8, rel=1e-9)

    @pytest.mark.parametrize("h", [1e-7, 2.0])
    def test_step_domain(self, scenario12, noise_default, h):
        with pytest.raises(ValueError):
            finite_difference_audit(scenario12, noise_default, h)

    def test_default_scenario_precision(self, scenario12, noise_default):
        audit = finite_difference_audit(scenario12, noise_default, 1e-3)
        assert audit.max_relative_discrepancy <= 1e-4
        assert audit.sensitivities.shape == (3, 12)
        assert audit.finite_differences.shape == (3, 12)
        # Per-row bounds (lambda1, lambda4, lambda5), fixed in advance at about
        # twice the measured discrepancy of the dense-eigenvector rows.
        assert audit.positions == (1, 4, 5)
        assert np.all(audit.relative_discrepancy.max(axis=1) <= [5e-14, 6e-12, 2e-7])

    def test_five_satellite_precision_per_row(self, noise_default):
        g = generate_constellation(5, 10.0, seed=1)
        audit = finite_difference_audit(g, noise_default, 1e-3)
        assert audit.positions == (1, 4, 5)
        assert np.all(audit.relative_discrepancy.max(axis=1) <= [6e-15, 1e-13, 1e-11])

    @pytest.mark.parametrize("m, bounds", [(30, [1.3e-13, 6e-12, 9e-8]),
                                           (60, [4e-13, 1.2e-11, 1.1e-7])])
    def test_large_constellation_precision_per_row(self, m, bounds, noise_default):
        # Per-row bounds (lambda1, lambda4, lambda5) at the traced sweep's
        # 5-degree scenarios, fixed in advance at about twice the measured
        # discrepancy.
        audit = finite_difference_audit(generate_constellation(m, 5.0, seed=1), noise_default, 1e-3)
        assert audit.positions == (1, 4, 5)
        assert np.all(audit.relative_discrepancy.max(axis=1) <= bounds)

    def test_oracle_solves_only_5x5_matrices(self, monkeypatch, scenario12, noise_default):
        # Each perturbed spectrum costs one 5x5 Jacobi solve, never an (m+1)^2 one.
        shapes = []
        solve = audit._jacobi_eigenvalues

        def recording_solve(A):
            shapes.append((len(A), *{len(row) for row in A}))
            return solve(A)

        monkeypatch.setattr(audit, "_jacobi_eigenvalues", recording_solve)
        finite_difference_audit(scenario12, noise_default, 1e-3)
        assert shapes == [(5, 5)] * (2 * scenario12.m)

    def test_large_step_grows_but_stays_bounded(self, scenario12, noise_default):
        audit = finite_difference_audit(scenario12, noise_default, 0.5)
        assert audit.max_relative_discrepancy <= 1e-2


class TestWriters:
    def make_summary(self):
        rng = np.random.default_rng(3)
        qs = rng.normal(0.5, 0.05, size=200)
        lams = rng.normal(size=(200, 5))
        batch = TrialBatch(q=qs, lambdas=lams, exceeded=qs > 0.55)
        return batch, summarize(batch, gaussian_dist(0.5, 0.05))

    def test_writers_match_golden_files(self, tmp_path):
        batch, summary = self.make_summary()
        write_trials_csv(batch, tmp_path / "trials.csv", GOLDEN_PROVENANCE)
        write_trials_csv(
            replace(batch, exceeded=None), tmp_path / "trials_no_exceeded.csv", GOLDEN_PROVENANCE
        )
        write_summary_json(summary, tmp_path / "summary.json", GOLDEN_PROVENANCE)
        write_histogram_csv(summary, tmp_path / "histogram.csv", GOLDEN_PROVENANCE)
        for name in ("trials.csv", "trials_no_exceeded.csv", "summary.json", "histogram.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    @staticmethod
    def one_shot_trials_csv(q, lams, exceeded):
        """The file one %-format pass over the whole batch writes."""
        n = len(q)
        flags = exceeded.astype(int).tolist() if exceeded is not None else [""] * n
        return (
            f"# trials={n}\n"
            "trial,q,lambda1,lambda2,lambda3,lambda4,lambda5,exceeded\r\n"
            + "".join(
                "%d,%r,%r,%r,%r,%r,%r,%s\r\n" % row
                for row in zip(range(n), q.tolist(), *lams.T.tolist(), flags)
            )
        ).encode()

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("with_exceeded", [True, False])
    def test_trials_csv_blocks_match_one_shot_format(self, tmp_path, n, with_exceeded):
        # Rows are written a block at a time; the bytes must equal one
        # %-format pass over the whole batch, across block boundaries.
        rng = np.random.default_rng(n)
        q = rng.normal(0.5, 0.05, size=n)
        lams = rng.normal(size=(n, 5)) * 1e12
        exceeded = q > 0.55 if with_exceeded else None
        path = tmp_path / "trials.csv"
        write_trials_csv(TrialBatch(q=q, lambdas=lams, exceeded=exceeded), path, {"trials": n})
        assert path.read_bytes() == self.one_shot_trials_csv(q, lams, exceeded)

    @pytest.mark.parametrize("with_exceeded", [True, False])
    def test_trials_csv_edge_values_match_one_shot_format(self, tmp_path, with_exceeded):
        # Zeros, subnormals, non-finite values and both sides of repr's
        # positional/exponent switch, in every column and around the block
        # boundary at row 1024.
        edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9999999999999998.0, 1e16,
                 1e-05, 0.0001, float("inf"), float("nan")]
        edges += [-v for v in edges]
        n = 1030
        rng = np.random.default_rng(11)
        cells = np.column_stack([rng.normal(0.5, 0.05, n), rng.normal(size=(n, 5)) * 1e12])
        for i, v in enumerate(edges):
            cells[i, i % 6] = v
            cells[1020 + i % 8, (i + 3) % 6] = v
        q, lams = cells[:, 0].copy(), cells[:, 1:].copy()
        exceeded = q > 0.55 if with_exceeded else None
        path = tmp_path / "trials.csv"
        write_trials_csv(TrialBatch(q=q, lambdas=lams, exceeded=exceeded), path, {"trials": n})
        assert path.read_bytes() == self.one_shot_trials_csv(q, lams, exceeded)

    @pytest.mark.parametrize("m, mask", [(5, 10.0), (12, 10.0), (30, 5.0), (60, 5.0)])
    def test_trials_csv_matches_one_shot_format_on_trial_batches(
        self, tmp_path, noise_default, m, mask
    ):
        # The writer's real traffic: run_trials columns at the benchmark's
        # sizes, over three blocks and a part block.
        g = generate_constellation(m, mask, seed=1)
        thr = predict_q_distribution(g, noise_default).mu_q
        batch = run_trials(g, noise_default, 3500, 7, threshold=thr)
        path = tmp_path / "trials.csv"
        write_trials_csv(batch, path, {"trials": 3500})
        assert path.read_bytes() == self.one_shot_trials_csv(batch.q, batch.lambdas, batch.exceeded)

    @staticmethod
    def counting_rop(monkeypatch):
        """Count the values whose digits take the full three-product path."""
        from edmdetect import _floatfmt

        taken = []
        rop = _floatfmt._rop

        def counted(g1, g0, cp):
            taken.append(len(cp))
            return rop(g1, g0, cp)

        monkeypatch.setattr(_floatfmt, "_rop", counted)
        return taken

    def test_trials_csv_fallback_lanes_match_one_shot_format(self, tmp_path, monkeypatch):
        # Exact powers of two have the irregular rounding interval, which
        # takes the full product; short decimals end in zeros, the longer nd
        # count; tiny and huge values the exponent form. All of them in
        # every column, around the block boundary at row 1024.
        p2 = np.ldexp(1.0, np.arange(-60, 60, 3))
        short = np.array([0.25, 1.5, 123.0, 120.0, 1e-4, 0.1, 2.5e-3, 1e15, 4096.5, 1e-7, 3e22])
        values = np.concatenate([p2, np.nextafter(p2, 0), short, -p2, -short])
        n = 1100
        rng = np.random.default_rng(5)
        cells = np.column_stack([rng.normal(0.5, 0.05, n), rng.normal(size=(n, 5)) * 1e12])
        for i, v in enumerate(values):
            cells[(i * 7) % n, i % 6] = v
            cells[1000 + i % 60, (i + 2) % 6] = v
        q, lams = cells[:, 0].copy(), cells[:, 1:].copy()
        taken = self.counting_rop(monkeypatch)
        path = tmp_path / "trials.csv"
        write_trials_csv(TrialBatch(q=q, lambdas=lams, exceeded=q > 0.5), path, {"trials": n})
        assert path.read_bytes() == self.one_shot_trials_csv(q, lams, q > 0.5)
        assert sum(taken) >= 2 * len(p2)

    def test_formatters_accept_empty_and_zero_dimensional_input(self):
        from edmdetect._floatfmt import FLOAT_WIDTH, repr_cells, uint_cells

        chars, valid = repr_cells(np.zeros((0, 6)))
        assert chars.shape == valid.shape == (0, 6, FLOAT_WIDTH)
        chars, valid = repr_cells(np.array(-2.5))
        assert chars[valid].tobytes() == b"-2.5"
        assert uint_cells(np.zeros(0, np.uint64))[0].shape == (0, 20)

    def test_digit_fallback_is_rare_on_a_default_run(
        self, tmp_path, monkeypatch, scenario12, noise_default
    ):
        # Under 1 in 1,000 values may take the full product on the default
        # scenario; its values are random, so the count is about 0.
        batch = run_trials(scenario12, noise_default, 65_536, MASTER_SEED)
        taken = self.counting_rop(monkeypatch)
        write_trials_csv(batch, tmp_path / "trials.csv")
        assert sum(taken) < 6 * 65_536 / 1000

    def test_trials_csv_columns(self, tmp_path):
        batch, _ = self.make_summary()
        path = tmp_path / "trials.csv"
        write_trials_csv(batch, path, {"master_seed": 42})
        lines = path.read_text().splitlines()
        assert lines[0] == "# master_seed=42"
        assert lines[1] == "trial,q,lambda1,lambda2,lambda3,lambda4,lambda5,exceeded"
        assert len(lines) == 2 + len(batch)
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[1]) == batch.q[0]
        assert first[7] in {"0", "1"}

    def test_trials_csv_empty_exceeded_column(self, tmp_path):
        batch, _ = self.make_summary()
        path = tmp_path / "trials.csv"
        write_trials_csv(replace(batch, exceeded=None), path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",exceeded")
        assert lines[1].endswith(",")

    def test_histogram_csv_structure(self, tmp_path):
        batch, summary = self.make_summary()
        path = tmp_path / "hist.csv"
        write_histogram_csv(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count,predicted_density"
        rows = [line.split(",") for line in lines[1:]]
        assert sum(int(r[2]) for r in rows) == len(batch)
        assert all(float(r[0]) < float(r[1]) for r in rows)
        assert any(float(r[3]) > 0 for r in rows)

    def test_summary_json_contents(self, tmp_path):
        _, summary = self.make_summary()
        path = tmp_path / "summary.json"
        write_summary_json(summary, path, {"trials": 200})
        doc = json.loads(path.read_text())
        assert doc["n_trials"] == 200
        assert sum(doc["histogram"]["counts"]) == 200
        assert 0.0 <= doc["false_alarm_rate"] <= 1.0
        assert doc["config"] == {"trials": 200}
        assert set(doc["predicted"]) >= {"mu_q", "sigma_q"}


def test_trial_block_matches_plain_pipeline(small_scenario):
    # The batched block must agree with the one-shot reference path, trial by
    # trial, with each trial's noise drawn on its own from the block stream.
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    d = true_ranges(small_scenario)
    key = noise_key(21)
    q = run_trials(small_scenario, nm, 5, 21).q
    b = nm.bias_b
    for t in range(5):
        v = block_noise(key, 0, t + 1, small_scenario.m, nm.sigma_v)[t]
        sample = PseudorangeSample(rho=d + b + v, d_true=d, v=v)
        assert q[t] == pytest.approx(q_of_sample(small_scenario, sample), rel=1e-12)


def _ranked_public_kernel(g, nm, n, seed):
    """The unordered centered_gram_eigvals of run_trials' block_noise rows, and
    all m + 1 values of each row ranked by _order_indices."""
    key = noise_key(seed)
    rho = np.concatenate([
        true_ranges(g) + nm.bias_b
        + block_noise(key, b, min(_BLOCK, n - b * _BLOCK), g.m, nm.sigma_v)
        for b in range(-(-n // _BLOCK))
    ])
    w = centered_gram_eigvals(g.satellites, rho)
    return w, np.take_along_axis(w, _order_indices(w), axis=-1)


@pytest.mark.parametrize("m", [5, 12, 30])
@pytest.mark.parametrize("n", [1, 1023, 1025, 4095, 4097, 9000])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_trials_is_the_public_kernel_ranked(m, n, workers):
    # One kernel path: run_trials' columns are, bit for bit, the public
    # centered_gram_eigvals of the same block_noise rows, all m + 1 values
    # ranked by _order_indices. m = 5 sums fewer than 8 features at a time.
    # workers=2 pins that the ignored argument, which the benchmark still
    # passes, changes no bit.
    g = generate_constellation(m, 10.0 if m < 30 else 5.0, seed=1)
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    batch = run_trials(g, nm, n, 9, workers=workers)
    _, main = _ranked_public_kernel(g, nm, n, 9)
    assert np.array_equal(batch.lambdas, main[:, :5])
    assert np.array_equal(batch.q, (main[:, 3] + main[:, 4]) / (2.0 * main[:, 0]))


@pytest.mark.parametrize("scenario, bias, sigma", [
    ("scenario12", 0.0, 3.0), ("scenario12", 0.0, 300.0),
    ("scenario12", 1.0, 3.0), ("scenario12", 1.0, 300.0),
    ("coplanar_scenario", 1.0e5, 3.0),
])
def test_run_trials_ranks_five_columns_where_the_order_moves(request, scenario, bias, sigma):
    # run_trials ranks the kernel's five values alone. Where |lambda_5|
    # reaches lambda_4 (small biases) the ranking moves lambda_5, and on the
    # coplanar geometry every lane takes the eigvalsh fallback, whose values
    # come out in ascending order; the ranked five must still be, bit for
    # bit, the first five of all m + 1 values ranked.
    g = request.getfixturevalue(scenario)
    nm = NoiseModel(sigma_v=sigma, bias_b=bias)
    batch = run_trials(g, nm, 4097, 9)
    w, main = _ranked_public_kernel(g, nm, 4097, 9)
    assert np.any(_order_indices(w[:, :5]) != np.arange(5))
    assert np.array_equal(batch.lambdas, main[:, :5])
    assert np.array_equal(batch.q, (main[:, 3] + main[:, 4]) / (2.0 * main[:, 0]))


def test_run_trials_sorts_only_the_lanes_a_swap_cannot_rank(
    scenario12, coplanar_scenario, noise_default, monkeypatch
):
    # A certified lane is ranked by at most a swap of lambda_4 and lambda_5,
    # so only lanes with |lambda_5| > lambda_3 and the eigvalsh fallback's
    # ascending lanes (every lane of the coplanar geometry) reach
    # edm._order_indices: none of 20k default trials, none at b = 1 m, where
    # lanes swap, and at b = 1e6 m, sigma = 3e5 m, the few past lambda_3.
    near, far = NoiseModel(sigma_v=3.0, bias_b=1.0), NoiseModel(sigma_v=3.0e5, bias_b=1.0e6)
    w_near, _ = _ranked_public_kernel(scenario12, near, 4097, 9)
    w_far, _ = _ranked_public_kernel(scenario12, far, 4097, 9)
    assert np.any(np.abs(w_near[:, 4]) > w_near[:, 3])
    rows = []
    order = edm._order_indices

    def spy(w):
        rows.append(w.shape[0])
        return order(w)

    monkeypatch.setattr(edm, "_order_indices", spy)
    run_trials(scenario12, noise_default, 20_000, MASTER_SEED)
    run_trials(scenario12, near, 4097, 9)
    assert sum(rows) == 0
    run_trials(coplanar_scenario, noise_default, 4097, 9)
    assert sum(rows) == 4097
    del rows[:]
    run_trials(scenario12, far, 4097, 9)
    assert 0 < sum(rows) == np.count_nonzero(np.abs(w_far[:, 4]) > w_far[:, 2]) < 4097


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_trial_loop_and_writer_memory_stays_flat(scenario12, noise_default, tmp_path):
    # Growing the run 8x may grow run_trials' peak by its output columns
    # only, and write_trials_csv's peak not at all: blocks are filled in
    # place and written through one row matrix. Allowance: 256 KiB.
    run_trials(scenario12, noise_default, 2 * _BLOCK, 3)  # first-use costs
    extra, writer = {}, {}
    for n in (8192, 65536):
        batches = []
        peak = _traced_peak(lambda: batches.append(run_trials(scenario12, noise_default, n, 3)))
        (batch,) = batches
        extra[n] = peak - batch.q.nbytes - batch.lambdas.nbytes
        writer[n] = _traced_peak(lambda: write_trials_csv(batch, tmp_path / "trials.csv"))
    assert extra[65536] - extra[8192] <= 256 * 1024, extra
    assert writer[65536] - writer[8192] <= 256 * 1024, writer


def test_summarize_memory_is_one_q_copy(scenario12, noise_default):
    # Beyond the batch, summarize holds one n-long copy of q at a time
    # (8 B/trial) plus scratch of _BLOCK rows; numpy's one-shot expressions
    # (summarize_reference) take about 96 B/trial. Bound, fixed in advance:
    # 1.0 MB at n = 65,536 (about 15 B/trial), and at n = 8,192 no more
    # than the one-shot expressions.
    dist = predict_q_distribution(scenario12, noise_default)
    batch = run_trials(scenario12, noise_default, 65_536, 3)
    small = TrialBatch(q=batch.q[:8192], lambdas=batch.lambdas[:8192], exceeded=None)
    summarize(small, dist)  # first-use costs
    summarize_reference(small, dist)
    assert _traced_peak(lambda: summarize(batch, dist)) <= 1.0e6
    assert (_traced_peak(lambda: summarize(small, dist))
            <= _traced_peak(lambda: summarize_reference(small, dist)))


def test_empirical_false_alarm_matches_target(small_scenario):
    # Binomial check at p_fa = 0.05 with 2,000 trials (3 sigma band).
    from edmdetect import detection_threshold

    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    dist = predict_q_distribution(small_scenario, nm)
    thr = detection_threshold(dist, 0.05)
    batch = run_trials(small_scenario, nm, 2000, 17, threshold=thr.one_sided_hi)
    rate = np.mean(batch.exceeded)
    band = 3 * np.sqrt(0.05 * 0.95 / 2000)
    assert abs(rate - 0.05) <= band + 0.01  # slack for approximation error


@pytest.mark.parametrize("scenario, k", [("small_scenario", 40), ("scenario12", 10)])
def test_trial_kernel_matches_extended_precision_oracle(request, scenario, k):
    # Oracle: the dense 40-digit spectrum of the same pseudoranges (a rank-5
    # oracle would share the kernel's algebra). Tolerances, fixed in advance:
    # q within 1e-13 and lambda1..lambda5 within 1e-9, both relative.
    g = request.getfixturevalue(scenario)
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    d = true_ranges(g)
    key = noise_key(7)
    batch = run_trials(g, nm, k, 7)
    q, lams = batch.q, batch.lambdas
    rho = d + nm.bias_b + block_noise(key, 0, k, g.m, nm.sigma_v)
    with mpmath.workdps(40):
        for t in range(k):
            ref = dense_mp_eigenvalues(g.satellites, rho[t])[:5]
            q_ref = (ref[3] + ref[4]) / (2 * ref[0])
            assert abs(float(q[t]) - q_ref) <= 1e-13 * abs(q_ref), t
            for i in range(5):
                assert abs(float(lams[t, i]) - ref[i]) <= 1e-9 * abs(ref[i]), (t, i)


def _count_fallback_lanes(monkeypatch) -> list:
    """Spy on np.linalg.eigvalsh, which the kernel calls only for its fallback lanes."""
    lanes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        lanes.append(a.shape[0])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return lanes


def test_no_lane_falls_back_on_default_or_oracle_scenarios(
    request, scenario12, noise_default, monkeypatch
):
    # The secular solve certifies every trial of the default 100k run (the
    # CLI's master seed) and of the oracle test's trials: the eigvalsh
    # fallback serves none of them.
    lanes = _count_fallback_lanes(monkeypatch)
    run_trials(scenario12, noise_default, 100_000, MASTER_SEED)
    for scenario, k in (("small_scenario", 40), ("scenario12", 10)):
        run_trials(request.getfixturevalue(scenario), noise_default, k, 7)
    assert sum(lanes) == 0


def test_fallback_lanes_match_dense_and_stack_rowwise(
    scenario12, coplanar_scenario, noise_default, monkeypatch
):
    # Lanes the solve does not certify take eigvalsh of their own arrowhead:
    # every lane of the coplanar geometry (sigma_3 = 0, so no strict
    # interlacing), and, with certification refused where alpha's last bit
    # is odd, part of a default-scenario stack. Their values must match the
    # dense eigensolve and keep a row's bits the same alone and in a stack.
    lanes = _count_fallback_lanes(monkeypatch)
    solve = edm._secular_roots

    def uncertify_odd(f, alpha, h0, z2, ws):
        lam, certified = solve(f, alpha, h0, z2, ws)
        return lam, certified & (alpha.view(np.uint64) % 2 == 0)

    for g, patch in ((coplanar_scenario, False), (scenario12, True)):
        if patch:
            monkeypatch.setattr(edm, "_secular_roots", uncertify_odd)
        d = true_ranges(g)
        rho = d + noise_default.bias_b + block_noise(noise_key(5), 0, 64, g.m, 3.0)
        del lanes[:]
        w = centered_gram_eigvals(g.satellites, rho)
        assert sum(lanes) in (range(1, 64) if patch else [64])
        full = np.linalg.eigvalsh(centered_gram(g.satellites, rho))
        scale = np.abs(full).max(axis=-1, keepdims=True)
        assert np.all(np.abs(np.sort(w, axis=-1) - full) <= 1e-12 * scale)
        for row, r in zip(w, rho):
            assert np.array_equal(centered_gram_eigvals(g.satellites, r), row)


def test_near_planar_origin_and_satellites_fall_back_without_overflow(monkeypatch):
    # h0_sq = nu^2 / (4 sigma_3^2) has no floor: satellites within 1e-35 m of
    # a plane through the origin (the receiver, 6.4e6 m off that plane, keeps
    # the scenario non-coplanar) overflow h0 at the largest admitted lengths.
    # Every such lane must fail certification and take the eigvalsh fallback,
    # with finite values and no RuntimeWarning (an error under pyproject).
    theta = 0.1 + 2.0 * np.pi * np.arange(8) / 8
    sats = np.column_stack([2.6e7 * np.cos(theta), 2.6e7 * np.sin(theta),
                            1e-35 * (1.0 + 0.5 * np.sin(3.0 * theta))])
    g = ScenarioGeometry(receiver=np.array([0.0, 0.0, 6.371e6]), satellites=sats)
    lanes = _count_fallback_lanes(monkeypatch)
    batch = run_trials(g, NoiseModel(edm.MAX_LENGTH_M / 8, edm.MAX_LENGTH_M / 2), 64, 1)
    assert sum(lanes) == 64
    assert np.all(np.isfinite(batch.q)) and np.all(np.isfinite(batch.lambdas))


@pytest.mark.parametrize("scenario", ["small_scenario", "scenario12", "scenario30",
                                      "coplanar_scenario"])
# The oracle ranks by magnitude, the ranking of q; the dense reference is
# ranked the same way. The parameter keeps the test ids.
@pytest.mark.parametrize("ordering", ["magnitude"])
def test_mp_centering_matches_literal_projection(request, scenario, ordering):
    # The audit's rank-5 oracle against the dense reference, the literal
    # -J D J / 2 and its full eigsy. Tolerances, fixed in advance:
    # - against the 40-digit reference, 1e-35 of the largest |eigenvalue|:
    #   both round at 40 digits but in a different order, so eigenvalues, the
    #   zero cluster included, may differ by a few units in the 40th digit of
    #   the matrix scale (about 1e-25 m^2 here);
    # - against the 60-digit reference, per eigenvalue: each non-zero one
    #   within 1e-33 of itself, so an error in the small activated lambda4
    #   and lambda5 cannot hide under the scale of lambda1, and the zero
    #   cluster within 1e-35 of the largest |eigenvalue|.
    g = request.getfixturevalue(scenario)
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    rho = true_ranges(g) + nm.bias_b + block_noise(noise_key(3), 0, 1, g.m, 3.0)[0]
    got = _rank5_oracle(g.satellites)([Decimal(float(x)) for x in rho])
    assert len(got) == g.m + 1
    ref = dense_mp_eigenvalues(g.satellites, rho)
    ref60 = dense_mp_eigenvalues(g.satellites, rho, dps=60)
    with mpmath.workdps(60):
        got = [mpmath.mpf(str(x)) for x in got]
        scale = max(abs(x) for x in ref60)
        for i in range(g.m + 1):
            assert abs(got[i] - ref[i]) <= 1e-35 * scale, i
            if abs(ref60[i]) > 1e-30 * scale:
                assert abs(got[i] - ref60[i]) <= 1e-33 * abs(ref60[i]), i
            else:
                assert abs(got[i] - ref60[i]) <= 1e-35 * scale, i
        if scenario == "coplanar_scenario":
            # u inside span(A): only four eigenvalues are non-zero.
            assert sum(abs(x) > 1e-30 * scale for x in ref60) == 4


def test_rank5_oracle_pins_its_own_precision(scenario12):
    # The oracle enters its 40-digit context itself, so the caller's decimal
    # context (28 digits by default) cannot lower its precision silently.
    eigenvalues = _rank5_oracle(scenario12.satellites)
    rho = [Decimal(float(x)) for x in true_ranges(scenario12) + 1.0e5]
    with localcontext(Context(prec=40)):
        expected = eigenvalues(rho)
    assert eigenvalues(rho) == expected
    with localcontext(Context(prec=12)):
        assert eigenvalues(rho) == expected


def test_rank5_oracle_refuses_a_vanishing_basis_column():
    # Every satellite on the plane x = 0, which holds the receiver slot at
    # the origin: the x column of A = J [0; S] is exactly zero.
    sats = generate_constellation(6, 10.0, seed=2).satellites.copy()
    sats[:, 0] = 0.0
    with pytest.raises(SpectrumError, match="column 0"):
        _rank5_oracle(sats)


def _jacobi_against_eigsy(A):
    """Max |Jacobi - eigsy| over the sorted spectra, relative to the largest |eigenvalue|.

    ``A`` is a float matrix, which Decimal and mpf both hold exactly.
    """
    with localcontext(Context(prec=40)):
        got = _jacobi_eigenvalues([[Decimal(float(x)) for x in row] for row in A])
    with mpmath.workdps(40):
        E = mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True)
        ref = sorted(E[i] for i in range(len(A)))
    with mpmath.workdps(60):
        got = sorted(mpmath.mpf(str(x)) for x in got)
        scale = max(abs(x) for x in ref)
        return max(abs(a - b) for a, b in zip(got, ref)) / scale


class TestJacobiEigenvalues:
    # The audit's 5x5 solver against mpmath's eigsy at 40 digits. Tolerance,
    # fixed in advance: 1e-35 of the largest |eigenvalue|.

    def test_zero_matrix_returns_at_once(self, monkeypatch):
        # Already converged, so no sweep is needed.
        monkeypatch.setattr(audit, "_JACOBI_MAX_SWEEPS", 0)
        with localcontext(Context(prec=40)):
            assert _jacobi_eigenvalues([[Decimal(0)] * 5 for _ in range(5)]) == [0] * 5

    def test_diagonal_matrix_is_its_own_spectrum(self, monkeypatch):
        monkeypatch.setattr(audit, "_JACOBI_MAX_SWEEPS", 0)
        d = [Decimal("2.5e15"), Decimal(-3), Decimal(0), Decimal("1e-20"), Decimal("7.25")]
        A = [[d[i] if i == k else Decimal(0) for k in range(5)] for i in range(5)]
        with localcontext(Context(prec=40)):
            assert _jacobi_eigenvalues(A) == d

    def test_repeated_eigenvalue(self):
        Q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(5, 5)))
        A = Q @ np.diag([3.0, 3.0, 3.0, -1.0, 0.5]) @ Q.T
        assert _jacobi_against_eigsy((A + A.T) / 2) <= 1e-35

    @pytest.mark.parametrize("seed", range(6))
    def test_random_symmetric_over_ten_decades(self, seed):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        lam = rng.choice([-1.0, 1.0], 5) * 10.0 ** np.r_[0.0, 10.0, rng.uniform(0.0, 10.0, 3)]
        A = Q @ np.diag(lam) @ Q.T
        assert _jacobi_against_eigsy((A + A.T) / 2) <= 1e-35

    def test_non_convergence_is_a_spectrum_error(self, monkeypatch):
        monkeypatch.setattr(audit, "_JACOBI_MAX_SWEEPS", 0)
        with localcontext(Context(prec=40)), pytest.raises(SpectrumError, match="0 sweeps"):
            _jacobi_eigenvalues([[Decimal(1), Decimal(2)], [Decimal(2), Decimal(1)]])
