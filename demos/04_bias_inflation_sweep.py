#!/usr/bin/env python3
"""How much clock bias does the prediction need? A sweep with no verdict.

The fourth and fifth eigenvalues only have stable eigenvectors when the
pseudoranges carry a common bias; too little bias and the noise itself picks
the eigenvectors, so the first-order prediction degrades. Nobody has a
closed-form rule for "enough", so this script just measures: for each bias
it compares the predicted sigma of q with a 4,000-trial empirical value and
reports where the prediction is refused outright.
"""

from edmdetect import (
    DegenerateEigenvalueError,
    NoiseModel,
    generate_constellation,
    predict_q_distribution,
    run_trials,
)

N_TRIALS = 4_000
scenario = generate_constellation(n_sats=12, elevation_mask_deg=10.0, seed=1)

print(f"{'bias [m]':>10}  {'sigma_q pred':>12}  {'sigma_q emp':>12}  "
      f"{'pred/emp':>8}  {'mean err':>9}")
for bias in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7):
    noise = NoiseModel(sigma_v=3.0, bias_b=bias)
    try:
        dist = predict_q_distribution(scenario, noise)
    except DegenerateEigenvalueError:
        print(f"{bias:10.0e}  refused: activated eigenvalues too close to the zero cluster")
        continue
    qs = run_trials(scenario, noise, N_TRIALS, 101).q
    emp_std = qs.std(ddof=1)
    mean_err = (qs.mean() - dist.mu_q) / dist.sigma_q  # in predicted sigmas
    print(f"{bias:10.0e}  {dist.sigma_q:12.4e}  {emp_std:12.4e}  "
          f"{dist.sigma_q / emp_std:8.3f}  {mean_err:+8.2f}s")

print(
    "\nReading the table: pred/emp near 1 and a small mean error mean the\n"
    "linearization holds. For this scenario the agreement persists right\n"
    "down to the refusal point, where the degeneracy guard stops the\n"
    "prediction before the activated eigenvalues sink into the zero\n"
    "cluster. Note how sigma_q itself changes once the bias stops being\n"
    "small against the ranges: no bound is asserted here, measure at your\n"
    "own geometry."
)
