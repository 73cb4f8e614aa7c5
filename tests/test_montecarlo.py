"""Trial harness: determinism, summaries, fault injection, and the FD audit."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edmdetect import (
    NoiseModel,
    PseudorangeSample,
    SpectrumError,
    centered_gram,
    finite_difference_audit,
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
from edmdetect.montecarlo import (
    TrialBatch,
    _trial_block,
    block_noise,
    ks_critical_value,
    noise_key,
    relative_discrepancy,
    write_histogram_csv,
    write_summary_json,
    write_trials_csv,
)
from edmdetect.perturbation import StatisticDistribution

# Writer outputs for TestWriters.make_summary's batch, written by the
# record-based writers that preceded TrialBatch.
GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_PROVENANCE = {
    "master_seed": 42, "ordering": "magnitude", "p_fa": 0.01, "scenario_file": "", "trials": 200,
}


def q_of_sample(scenario, sample, ordering="magnitude"):
    return q_statistic(spectrum(centered_gram(scenario.satellites, sample.rho), ordering))


def synthetic_batch(qs, lams=None):
    qs = np.asarray(qs, dtype=float)
    if lams is None:
        lams = np.zeros((qs.shape[0], 5))
    return TrialBatch(q=qs, lambdas=lams, exceeded=None, q_alt=qs)


def gaussian_dist(mu, sigma):
    return StatisticDistribution(
        mu_num=0.0, sigma_num=0.0, sigma_num_independent=0.0,
        mu_den=1.0, sigma_den=0.0, mu_q=mu, sigma_q=sigma,
        covariance_num_den=0.0, validity_warnings=(), ordering="magnitude",
    )


@pytest.fixture(scope="module")
def small_scenario():
    return generate_constellation(6, 15.0, seed=11)


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
        # Run length, block boundaries, worker count and seeds wider than the
        # 128-bit Philox key change nothing about trial t's statistic.
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        refs = []
        for seed in (13, 2**128 + 13):
            ref = run_trials(small_scenario, nm, 3000, seed)
            for n in (1023, 1024, 1025):
                assert np.array_equal(run_trials(small_scenario, nm, n, seed).q, ref.q[:n])
            assert np.array_equal(run_trials(small_scenario, nm, 3000, seed, workers=2).q, ref.q)
            refs.append(ref.q)
        assert not np.array_equal(refs[0], refs[1])

    def test_noiseless_unbiased_trial_gives_zero_statistic(self, small_scenario):
        nm = NoiseModel(sigma_v=1e-12, bias_b=0.0)
        batch = run_trials(small_scenario, nm, 1, 0)
        assert len(batch) == 1
        assert abs(batch.q[0]) <= 1e-12

    def test_worker_count_does_not_change_results(self, small_scenario):
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        serial = run_trials(small_scenario, nm, 2100, 13, workers=1)
        parallel = run_trials(small_scenario, nm, 2100, 13, workers=2)
        assert np.array_equal(serial.q, parallel.q)

    def test_threshold_marking(self, small_scenario):
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        batch = run_trials(small_scenario, nm, 64, 5, threshold=0.0)
        assert batch.exceeded is not None
        assert batch.exceeded.dtype == bool
        assert np.array_equal(batch.exceeded, batch.q > 0.0)
        lo, hi = batch.q.min() - 1.0, batch.q.max() + 1.0
        batch_band = run_trials(small_scenario, nm, 64, 5, threshold=(lo, hi))
        assert batch_band.exceeded.shape == (64,)
        assert not batch_band.exceeded.any()

    @pytest.mark.parametrize("bad", [0, -3])
    def test_requires_positive_trial_count(self, small_scenario, bad):
        with pytest.raises(ValueError):
            run_trials(small_scenario, NoiseModel(3.0, 1e5), bad, 1)

    def test_rejects_bad_ordering_and_seed(self, small_scenario):
        nm = NoiseModel(3.0, 1e5)
        with pytest.raises(ValueError):
            run_trials(small_scenario, nm, 2, 1, ordering="bogus")
        with pytest.raises(ValueError):
            run_trials(small_scenario, nm, 2, -1)

    def test_zero_leading_eigenvalue_aborts_with_trial_index(
        self, small_scenario, monkeypatch
    ):
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: np.zeros(a.shape[:-1])
        )
        with pytest.raises(SpectrumError, match="trial 0"):
            run_trials(small_scenario, NoiseModel(3.0, 1e5), 4, 1)

    def test_alt_ordering_statistic_recorded(self, small_scenario):
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        batch = run_trials(small_scenario, nm, 8, 3, ordering="magnitude")
        assert batch.q_alt.shape == (8,)
        # Under the algebraic ordering position 5 sits in the zero cluster,
        # so the two statistics differ only through the small fifth value.
        assert np.all(batch.q != batch.q_alt)
        assert np.all(np.abs(batch.q - batch.q_alt) / np.abs(batch.q) < 0.05)


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

    def test_histogram_partitions_sample(self):
        rng = np.random.default_rng(5)
        qs = rng.normal(size=3000)
        s = summarize(synthetic_batch(qs), gaussian_dist(0.0, 1.0))
        assert s.hist_counts.sum() == 3000
        assert np.all(np.diff(s.hist_edges) > 0)

    def test_correlation_matrix_shape(self):
        rng = np.random.default_rng(8)
        lams = rng.normal(size=(500, 5))
        qs = rng.normal(size=500)
        s = summarize(synthetic_batch(qs, lams), gaussian_dist(0.0, 1.0))
        np.testing.assert_array_equal(np.diag(s.correlation), np.ones(4))
        np.testing.assert_allclose(s.correlation, s.correlation.T, atol=1e-12)
        assert np.all(np.abs(s.correlation) <= 1.0 + 1e-12)

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
        assert faulted.fault_index == 2

    def test_index_out_of_range(self, small_scenario):
        d = true_ranges(small_scenario)
        sample = sample_pseudoranges(d, NoiseModel(3.0, 1e5), seed=2)
        for bad in (-1, small_scenario.m):
            with pytest.raises(IndexError):
                inject_fault(sample, bad, 100.0)

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
            rho=sample.rho[perm], d_true=sample.d_true[perm],
            b_effective=sample.b_effective, v=sample.v[perm],
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
        assert np.all(relative_discrepancy(table, table) == 0.0)
        assert relative_discrepancy(np.array([5.0]), np.array([5.0]))[0] == 0.0

    def test_floor_applies_below_unit_magnitude(self):
        out = relative_discrepancy(np.array([1e-8]), np.array([2e-8]))
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

    def test_large_step_grows_but_stays_bounded(self, scenario12, noise_default):
        audit = finite_difference_audit(scenario12, noise_default, 0.5)
        assert audit.max_relative_discrepancy <= 1e-2


class TestWriters:
    def make_summary(self):
        rng = np.random.default_rng(3)
        qs = rng.normal(0.5, 0.05, size=200)
        lams = rng.normal(size=(200, 5))
        q_alt = rng.normal(0.5, 0.05, size=200)
        batch = TrialBatch(q=qs, lambdas=lams, exceeded=qs > 0.55, q_alt=q_alt)
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
        assert set(doc["predicted"]) >= {"mu_q", "sigma_q", "ordering"}


def test_trial_block_matches_plain_pipeline(small_scenario):
    # The batched block must agree with the one-shot reference path, trial by
    # trial, with each trial's noise drawn on its own from the block stream.
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    d = true_ranges(small_scenario)
    key = noise_key(21)
    q, lams, _ = _trial_block(
        small_scenario.satellites, d, nm.sigma_v, nm.effective_bias, key, 0, 5, "magnitude"
    )
    b = nm.effective_bias
    for t in range(5):
        v = block_noise(key, 0, t + 1, small_scenario.m, nm.sigma_v)[t]
        sample = PseudorangeSample(rho=d + b + v, d_true=d, b_effective=b, v=v)
        assert q[t] == pytest.approx(q_of_sample(small_scenario, sample), rel=1e-12)


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
