#!/usr/bin/env python3
"""Why the test statistic works: rank collapse and bias activation.

Builds the augmented squared-distance matrix for a 12-satellite scenario and
shows its centered-Gram spectrum in three regimes:

  1. perfectly consistent measurements  -> exactly 3 non-zero eigenvalues
  2. clock bias kept in the pseudoranges -> eigenvalues 4 and 5 activate
  3. bias + measurement noise            -> the activated pair fluctuates,
                                            and q = (lam4 + lam5) / (2 lam1)
                                            measures that fluctuation
"""

import numpy as np

from edmdetect import (
    NoiseModel,
    centered_gram,
    generate_constellation,
    nominal_pseudoranges,
    sample_pseudoranges,
    spectrum,
    test_statistic,
    true_ranges,
)
from edmdetect.perturbation import GAP_TOL_REL_DEFAULT

scenario = generate_constellation(n_sats=12, elevation_mask_deg=10.0, seed=1)
d = true_ranges(scenario)
print(f"scenario: m = {scenario.m} satellites, ranges "
      f"{d.min()/1e6:.1f}-{d.max()/1e6:.1f} thousand km")


def show(label, rho):
    w, V = spectrum(centered_gram(scenario.satellites, rho))
    q = test_statistic((w, V))
    head = ", ".join(f"{x: .3e}" for x in w[:6])
    n_nonzero = int(np.sum(np.abs(w) > GAP_TOL_REL_DEFAULT * np.abs(w).max()))
    print(f"\n{label}")
    print(f"  leading eigenvalues (m^2): {head}, ...")
    print(f"  non-zero count (above {GAP_TOL_REL_DEFAULT:g} of |lambda1|, the floor of "
          f"predict's gap guard and audit's rank rows): {n_nonzero}")
    print(f"  q = {q:.6e}")


# 1. Consistent: pseudoranges are the true distances.
show("1) consistent measurements (no bias, no noise)", d)

# 2. Clock bias retained: two extra eigenvalues appear, one positive and one
#    negative, with noise-independent eigenvectors.
nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
show("2) clock bias 1e5 m kept in the pseudoranges", nominal_pseudoranges(d, nm).rho)

# 3. Bias + noise: the activated pair moves a little per trial.
for seed in (0, 1, 2):
    show(f"3) bias + 3 m noise, draw {seed}", sample_pseudoranges(d, nm, seed).rho)

print(
    "\nThe activated pair sits 3-8 decades below lambda1 but far above the\n"
    "floating-point zero cluster, which is why q responds to measurement\n"
    "inconsistency while staying near its nominal value under fault-free noise."
)
