#!/usr/bin/env python3
"""Headline result: the analytic q distribution against 10,000 noisy trials.

Predicts the fault-free Gaussian parameters of the test statistic from
first-order eigenvalue perturbation, runs the seeded Monte Carlo harness at
the same geometry, prints the comparison, and writes the histogram/overlay
data (plus a PNG when matplotlib is available).
"""

import numpy as np

from edmdetect import (
    NoiseModel,
    generate_constellation,
    predict_q_distribution,
    run_trials,
    summarize,
)
from edmdetect.montecarlo import write_histogram_csv

N_TRIALS = 10_000
MASTER_SEED = 42

scenario = generate_constellation(n_sats=12, elevation_mask_deg=10.0, seed=1)
noise = NoiseModel(sigma_v=3.0, bias_b=1.0e5)

dist = predict_q_distribution(scenario, noise)
print(f"analytic prediction: mu_q = {dist.mu_q:.6e}, sigma_q = {dist.sigma_q:.6e}")
print(f"  numerator  mu = {dist.mu_num:.6e} m^2, sigma = {dist.sigma_num:.6e} m^2")
print(f"  denominator mu = {dist.mu_den:.6e} m^2, sigma = {dist.sigma_den:.6e} m^2")
print(f"  num/den covariance (diagnostic): {dist.covariance_num_den:.3e} m^4")

batch = run_trials(scenario, noise, N_TRIALS, MASTER_SEED)
summary = summarize(batch, dist)
print(f"\n{N_TRIALS} trials with master seed {MASTER_SEED}:")
print(f"  empirical mean = {summary.q_mean:.6e}  "
      f"({summary.q_mean/dist.mu_q - 1:+.2%} vs prediction)")
print(f"  empirical std  = {summary.q_std:.6e}  "
      f"({summary.q_std/dist.sigma_q - 1:+.2%} vs prediction)")
print(f"  KS distance    = {summary.ks_statistic:.4f} "
      f"(5% critical {summary.ks_critical_5pct:.4f}, 1% critical {summary.ks_critical_1pct:.4f})")

labels = ("lam1", "lam4", "lam5", "lam4+lam5")
print("\neigenvalue correlations over the trials:")
for label, row in zip(labels, summary.correlation):
    print(f"  {label:>9}: " + "  ".join(f"{x:+.3f}" for x in row))

write_histogram_csv(summary, "q_histogram.csv")
print("\nwrote q_histogram.csv (bin_left, bin_right, count, predicted_density)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the PNG")
else:
    qs = batch.q
    centers = 0.5 * (summary.hist_edges[:-1] + summary.hist_edges[1:])
    widths = np.diff(summary.hist_edges)
    density = summary.hist_counts / (len(qs) * widths)
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.bar(centers, density, width=widths, alpha=0.6, label="empirical (10,000 trials)")
    grid = np.linspace(summary.hist_edges[0], summary.hist_edges[-1], 400)
    pdf = np.exp(-0.5 * ((grid - dist.mu_q) / dist.sigma_q) ** 2) / (
        dist.sigma_q * np.sqrt(2 * np.pi)
    )
    ax.plot(grid, pdf, lw=2, color="tab:orange", label="Gaussian prediction")
    ax.set_xlabel("test statistic q")
    ax.set_ylabel("density")
    ax.legend()
    fig.tight_layout()
    fig.savefig("q_histogram.png", dpi=150)
    print("wrote q_histogram.png")
