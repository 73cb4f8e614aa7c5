"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; the heavy Monte Carlo batches come
from session fixtures shared with the unit tests, which is sound because
per-trial seeding makes any prefix of a batch identical to a shorter run.
"""

import json

import numpy as np
import pytest

from edmdetect import (
    NoiseModel,
    augment_edm,
    edm_from_gram,
    eigenvalue_sensitivities,
    eigenvalue_variance,
    finite_difference_audit,
    generate_constellation,
    gram_centered,
    gram_from_positions,
    gram_sensitivities,
    nominal_pseudoranges,
    ratio_gaussian,
    sample_pseudoranges,
    spectrum,
    test_statistic as q_statistic,
    true_ranges,
)
from edmdetect.cli import EXIT_OK, main
from edmdetect.edm import centering_matrix

NONZERO_REL = 1e-9


def centered_gram(scenario, rho):
    D = edm_from_gram(gram_from_positions(scenario.satellites.T))
    return gram_centered(augment_edm(D, rho))


def nonzero_count(w):
    return int(np.sum(np.abs(w) > NONZERO_REL * np.abs(w).max()))


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS — {text}")


def test_criterion_1_rank_collapse(scenario12):
    """Noiseless, zero-bias: lambda4/lambda1 and lambda5/lambda1 below 1e-9."""
    d = true_ranges(scenario12)
    w = spectrum(centered_gram(scenario12, d))[0]
    r4 = abs(w[3]) / w[0]
    r5 = abs(w[4]) / w[0]
    assert r4 < 1e-9
    assert r5 < 1e-9
    report(1, f"rank collapse: lambda4/lambda1={r4:.2e}, lambda5/lambda1={r5:.2e}")


def test_criterion_2_bias_activation(scenario12):
    """Noiseless, b = 1e5 m: exactly five eigenvalues above 1e-9 * lambda1."""
    nm = NoiseModel(sigma_v=1.0, bias_b=1.0e5)
    rho = nominal_pseudoranges(true_ranges(scenario12), nm).rho
    w = spectrum(centered_gram(scenario12, rho))[0]
    count = nonzero_count(w)
    assert count == 5
    report(2, f"bias activation: {count} non-zero eigenvalues "
              f"(|lambda5|/lambda1={abs(w[4])/w[0]:.2e})")


def test_criterion_3_perturbation_fidelity(scenario12, noise_default):
    """Finite-difference audit at h = 1e-3 m: max relative error <= 1e-4."""
    audit = finite_difference_audit(scenario12, noise_default, 1e-3)
    assert audit.max_relative_discrepancy <= 1e-4
    report(3, f"perturbation fidelity: max FD discrepancy "
              f"{audit.max_relative_discrepancy:.2e} <= 1e-4")


def test_criterion_4_variance_prediction(scenario12, noise_default, lambda_matrix_100k):
    """Analytic Var(lambda_1/4/5) within 10% of 100,000-trial empirical values."""
    rho = nominal_pseudoranges(true_ranges(scenario12), noise_default).rho
    spec = spectrum(centered_gram(scenario12, rho))
    s, _ = eigenvalue_sensitivities(spec, gram_sensitivities(rho))
    ratios = {}
    for row, (pos, col) in zip(s, ((1, 0), (4, 3), (5, 4))):
        analytic = eigenvalue_variance(row, noise_default.sigma_v)
        empirical = float(lambda_matrix_100k[:, col].var(ddof=1))
        ratios[pos] = analytic / empirical
        assert analytic == pytest.approx(empirical, rel=0.10)
    report(4, "variance prediction over 100,000 trials: analytic/empirical = "
              + ", ".join(f"lambda{p}: {r:.4f}" for p, r in ratios.items()))


@pytest.fixture(scope="module")
def simulate_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "run_a"
    code = main(["simulate", "--trials", "10000", "--seed", "42",
                 "--pfa", "0.01", "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_criterion_5_experiment_reproduction(simulate_run):
    """10,000 trials, m = 12: empirical mean within 5% and std within 15% of
    the prediction; the histogram/overlay file carries bins plus Gaussian
    curve samples."""
    doc = json.loads((simulate_run / "summary.json").read_text())
    mu_pred = doc["predicted"]["mu_q"]
    sigma_pred = doc["predicted"]["sigma_q"]
    assert doc["n_trials"] == 10000
    assert doc["q_mean"] == pytest.approx(mu_pred, rel=0.05)
    assert doc["q_std"] == pytest.approx(sigma_pred, rel=0.15)

    lines = [
        line for line in (simulate_run / "histogram.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert lines[0] == "bin_left,bin_right,count,predicted_density"
    rows = [line.split(",") for line in lines[1:]]
    assert sum(int(r[2]) for r in rows) == 10000
    assert all(float(r[0]) < float(r[1]) for r in rows)
    densities = [float(r[3]) for r in rows]
    assert max(densities) > 0.0
    report(5, f"10,000-trial reproduction: mean ratio "
              f"{doc['q_mean']/mu_pred:.4f}, std ratio {doc['q_std']/sigma_pred:.4f}, "
              f"histogram rows {len(rows)}")


def test_criterion_6_threshold_calibration(simulate_run):
    """One-sided p_fa = 0.01 threshold: empirical exceedance in [0.004, 0.016]."""
    doc = json.loads((simulate_run / "summary.json").read_text())
    rate = doc["false_alarm_rate"]
    assert 0.004 <= rate <= 0.016
    report(6, f"threshold calibration: exceedance {rate:.4f} in [0.004, 0.016]")


def test_criterion_7_ratio_approximation_sanity():
    """10^6 Gaussian pairs with CVs < 0.05: sampled std of the ratio within
    2% of the predicted sigma."""
    mu_x, sigma_x, mu_y, sigma_y = 2000.0, 80.0, 800.0, 30.0  # CVs 0.04, 0.0375
    rng = np.random.default_rng(271828)
    x = rng.normal(mu_x, sigma_x, size=1_000_000)
    y = rng.normal(mu_y, sigma_y, size=1_000_000)
    predicted = ratio_gaussian(mu_x, sigma_x, mu_y, sigma_y)
    empirical = float((x / y).std(ddof=1))
    assert predicted.sigma == pytest.approx(empirical, rel=0.02)
    report(7, f"ratio approximation: predicted sigma {predicted.sigma:.5f} vs "
              f"sampled {empirical:.5f} ({abs(predicted.sigma/empirical-1)*100:.2f}% off)")


def test_criterion_8_determinism(simulate_run, tmp_path):
    """Two identical cmd_simulate runs produce byte-identical outputs."""
    out_b = tmp_path / "run_b"
    code = main(["simulate", "--trials", "10000", "--seed", "42",
                 "--pfa", "0.01", "--out", str(out_b)])
    assert code == EXIT_OK
    identical = []
    for name in ("trials.csv", "histogram.csv", "summary.json"):
        assert (simulate_run / name).read_bytes() == (out_b / name).read_bytes()
        identical.append(name)
    report(8, f"determinism: byte-identical reruns for {', '.join(identical)}")


def test_criterion_9_invariant_suite():
    """Structural invariants over 100 randomized scenarios."""
    rng = np.random.default_rng(90210)
    for i in range(100):
        n_sats = 5 + i % 11
        mask = 5.0 + 5.0 * (i % 5)
        g = generate_constellation(n_sats, mask, seed=1000 + i)
        nm = NoiseModel(
            sigma_v=float(rng.uniform(0.5, 10.0)),
            bias_b=float(rng.uniform(1e4, 5e5)),
        )
        d = true_ranges(g)
        sample = sample_pseudoranges(d, nm, seed=np.random.SeedSequence([17, i]))

        D = edm_from_gram(gram_from_positions(g.satellites.T))
        D_c = augment_edm(D, sample.rho)
        for M in (D, D_c):
            np.testing.assert_array_equal(M, M.T)
            assert np.all(np.diag(M) == 0.0)
            assert np.all(M >= 0.0)

        G_c = gram_centered(D_c)
        n = G_c.shape[0]
        assert np.linalg.norm(G_c @ np.ones(n)) <= 1e-9 * np.linalg.norm(G_c)
        J = centering_matrix(n)
        assert np.abs(J @ J - J).max() <= 1e-12

        s = spectrum(G_c)
        q = q_statistic(s)

        perm = rng.permutation(g.m)
        permuted = type(g)(receiver=g.receiver, satellites=g.satellites[perm])
        s_perm = spectrum(centered_gram(permuted, sample.rho[perm]))
        np.testing.assert_allclose(
            np.sort(s_perm[0]), np.sort(s[0]),
            rtol=1e-9, atol=1e-9 * np.abs(s[0]).max(),
        )

        c = float(rng.uniform(0.1, 10.0))
        scaled = type(g)(receiver=c * g.receiver, satellites=c * g.satellites)
        q_scaled = q_statistic(spectrum(centered_gram(scaled, c * sample.rho)))
        assert q_scaled == pytest.approx(q, rel=1e-6, abs=1e-12)
    report(9, "invariant suite: EDM structure, centering, projector, permutation "
              "and scale invariance on 100 randomized scenarios")
