#!/usr/bin/env python3
"""Detector calibration and response: false alarms and injected faults.

Sets a one-sided threshold from the predicted distribution, verifies the
empirical false-alarm rate on nominal trials, then injects single-satellite
range faults of growing size and reports how often q crosses the threshold.
"""

import numpy as np

from edmdetect import (
    NoiseModel,
    centered_gram,
    detection_threshold,
    generate_constellation,
    inject_fault,
    predict_q_distribution,
    run_trials,
    sample_pseudoranges,
    spectrum,
    test_statistic,
    true_ranges,
)

P_FA = 0.01
N_NOMINAL = 10_000
N_FAULTED = 500

scenario = generate_constellation(n_sats=12, elevation_mask_deg=10.0, seed=1)
noise = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
d = true_ranges(scenario)

dist = predict_q_distribution(scenario, noise)
thr = detection_threshold(dist, P_FA)
print(f"predicted q: mu = {dist.mu_q:.6e}, sigma = {dist.sigma_q:.6e}")
print(f"one-sided threshold at p_fa={P_FA}: {thr.one_sided_hi:.6e}")
print(f"two-sided band: [{thr.two_sided_lo:.6e}, {thr.two_sided_hi:.6e}]")

batch = run_trials(scenario, noise, N_NOMINAL, 42, threshold=thr.one_sided_hi)
rate = np.mean(batch.exceeded)
print(f"\nnominal trials: empirical false-alarm rate {rate:.4f} (target {P_FA})")


def q_of(sample):
    return test_statistic(spectrum(centered_gram(scenario.satellites, sample.rho)))


print(f"\nfault response ({N_FAULTED} trials each, fault on satellite 3):")
print("fault size   P(q > threshold)")
for fault in (0.0, 30.0, 100.0, 300.0, 1000.0, 3000.0):
    hits = 0
    for t in range(N_FAULTED):
        sample = sample_pseudoranges(d, noise, np.random.SeedSequence([900, t]))
        hits += q_of(inject_fault(sample, 3, fault)) > thr.one_sided_hi
    print(f"{fault:8.0f} m   {hits / N_FAULTED:.3f}")

print(
    "\nSmall faults hide inside the nominal spread; once the fault dominates\n"
    "the noise the statistic leaves the nominal band almost surely. Which\n"
    "side of the band it leaves through depends on the geometry, so use the\n"
    "two-sided band when the fault sign is unknown."
)
