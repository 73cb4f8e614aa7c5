"""Analytic prediction of the fault-free distribution of the test statistic.

First-order eigenvalue perturbation: for a simple eigenpair (lambda, z) of
the nominal centered Gram matrix and per-satellite derivative matrices
dG_j = dG_c/dv_j, the noise response of the eigenvalue is the linear form

    lambda ~ lambda_nom + sum_j (z^T dG_j z / z^T z) * v_j,

so each tracked eigenvalue is Gaussian with an explicitly computable
variance. The statistic q = (lambda_4 + lambda_5) / (2 * lambda_1) is then
approximated by the Gaussian for a ratio of two Gaussians with small
denominator spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from . import edm, geometry
from .errors import DegenerateEigenvalueError

TRACKED_DEFAULT = (1, 4, 5)

# Relative (to the largest |eigenvalue|) gap below which a tracked eigenvalue
# is treated as numerically multiple and first-order tracking refused. Must
# sit well below the bias-activated fifth eigenvalue (~1e-8 of lambda_1 for a
# 1e5 m bias) yet well above double-precision spectral noise (~1e-15).
GAP_TOL_REL_DEFAULT = 1e-12

# Denominator coefficient of variation above which the Gaussian ratio
# approximation is no longer trusted; violations warn rather than fail.
RATIO_CV_GUARD = 0.1


@dataclass
class GramSensitivity:
    """Per-satellite derivatives of the centered Gram matrix.

    ``matrices[j]`` is dG_c/dv_j at v = 0: symmetric, centered, units of
    meters^2 per meter of pseudorange noise on satellite j.
    """

    matrices: np.ndarray  # (m, n, n) with n = m + 1
    rho: np.ndarray  # (m,) pseudoranges the derivatives were taken at

    @property
    def m(self) -> int:
        return self.matrices.shape[0]


@dataclass
class SensitivityTable:
    """Rows of eigenvalue sensitivities s[i, j] = z_i^T dG_j z_i / z_i^T z_i.

    ``positions`` are the 1-based eigenvalue positions tracked (row order);
    ``nominal`` holds the corresponding unperturbed eigenvalues.
    """

    positions: tuple[int, ...]
    s: np.ndarray  # (len(positions), m)
    nominal: np.ndarray  # (len(positions),)

    def row(self, position: int) -> np.ndarray:
        try:
            return self.s[self.positions.index(position)]
        except ValueError:
            raise KeyError(f"position {position} not tracked {self.positions}") from None

    def nominal_value(self, position: int) -> float:
        try:
            return float(self.nominal[self.positions.index(position)])
        except ValueError:
            raise KeyError(f"position {position} not tracked {self.positions}") from None


class NumeratorMoments(NamedTuple):
    mu: float
    sigma: float
    # Variance-summed value that ignores the lambda_4/lambda_5 covariance
    # induced by shared noise; kept as a diagnostic.
    sigma_independent: float


class RatioGaussian(NamedTuple):
    mu: float
    sigma: float
    warning: str | None


@dataclass
class StatisticDistribution:
    """Predicted Gaussian parameters for numerator, denominator and q."""

    mu_num: float
    sigma_num: float
    sigma_num_independent: float
    mu_den: float
    sigma_den: float
    mu_q: float
    sigma_q: float
    covariance_num_den: float
    validity_warnings: tuple[str, ...]
    ordering: str

    def to_json_dict(self) -> dict:
        return {
            "mu_num": self.mu_num,
            "sigma_num": self.sigma_num,
            "sigma_num_independent": self.sigma_num_independent,
            "mu_den": self.mu_den,
            "sigma_den": self.sigma_den,
            "mu_q": self.mu_q,
            "sigma_q": self.sigma_q,
            "covariance_num_den": self.covariance_num_den,
            "validity_warnings": list(self.validity_warnings),
            "ordering": self.ordering,
        }


class DetectionThresholds(NamedTuple):
    two_sided_lo: float
    two_sided_hi: float
    one_sided_hi: float
    p_fa: float
    degenerate: bool


def gram_sensitivities(rho: np.ndarray) -> GramSensitivity:
    """Exact derivative of the centered Gram matrix w.r.t. each noise term.

    Perturbing pseudorange j touches the augmented matrix only at entries
    (0, j) and (j, 0), where d(rho_j^2)/dv_j = 2 rho_j, so

        dG_j = -1/2 * J E_j J,   E_j = 2 rho_j (e_0 e_j^T + e_j e_0^T),

    which is symmetric and centered by construction.
    """
    rho = np.asarray(rho, dtype=float)
    m = rho.shape[0]
    n = m + 1
    u = -np.full(n, 1.0 / n)
    u[0] += 1.0  # J e_0
    out = np.empty((m, n, n))
    for j in range(m):
        c = -np.full(n, 1.0 / n)
        c[j + 1] += 1.0  # J e_{j+1}
        out[j] = -rho[j] * (np.outer(u, c) + np.outer(c, u))
    return GramSensitivity(matrices=out, rho=rho)


def eigenvalue_sensitivities(
    spec: edm.GramSpectrum,
    gs: GramSensitivity,
    tracked: tuple[int, ...] = TRACKED_DEFAULT,
    gap_tol_rel: float = GAP_TOL_REL_DEFAULT,
) -> SensitivityTable:
    """First-order response of tracked eigenvalues to each noise channel.

    Every tracked eigenvalue must be simple: its gap to the rest of the
    spectrum has to exceed ``gap_tol_rel`` times the largest eigenvalue
    magnitude, otherwise its eigenvector (and the linearization) is not
    well defined and a DegenerateEigenvalueError is raised.
    """
    w = spec.eigenvalues
    scale = float(np.abs(w).max())
    tol = gap_tol_rel * max(scale, 1.0)
    rows = np.empty((len(tracked), gs.m))
    nominal = np.empty(len(tracked))
    for a, pos in enumerate(tracked):
        lam, z = spec.eigenpair(pos)
        others = np.delete(w, pos - 1)
        gap = float(np.abs(others - lam).min()) if others.size else np.inf
        if gap <= tol:
            raise DegenerateEigenvalueError(
                f"eigenvalue at position {pos} ({lam:.6e} m^2) is within "
                f"{gap:.3e} m^2 of its nearest neighbor (tolerance {tol:.3e} m^2); "
                "its eigenvector is unstable, so first-order tracking would be "
                "unreliable. Increase the effective clock bias (bias inflation) "
                "to separate the activated eigenvalues."
            )
        denom = float(z @ z)  # 1 for unit eigenvectors, computed regardless
        rows[a] = np.einsum("i,jik,k->j", z, gs.matrices, z) / denom
        nominal[a] = lam
    return SensitivityTable(positions=tuple(tracked), s=rows, nominal=nominal)


def eigenvalue_variance(row: np.ndarray, sigma_v: float) -> float:
    """Var(lambda) = sum_j (s_j * sigma_v)^2 for one sensitivity row."""
    row = np.asarray(row, dtype=float)
    return float(np.sum((row * sigma_v) ** 2))


def numerator_moments(
    table: SensitivityTable,
    lambda4_nom: float,
    lambda5_nom: float,
    sigma_v: float,
) -> NumeratorMoments:
    """Gaussian moments of lambda_4 + lambda_5.

    The variance uses the combined linear form sum_j (s4j + s5j) v_j, which
    carries the covariance the two eigenvalues inherit from shared noise.
    The covariance-free sum of the individual variances is returned as a
    diagnostic alongside.
    """
    s4 = table.row(4)
    s5 = table.row(5)
    mu = float(lambda4_nom + lambda5_nom)
    var = float(np.sum(((s4 + s5) * sigma_v) ** 2))
    var_indep = eigenvalue_variance(s4, sigma_v) + eigenvalue_variance(s5, sigma_v)
    return NumeratorMoments(mu=mu, sigma=np.sqrt(var), sigma_independent=np.sqrt(var_indep))


def ratio_gaussian(
    mu_x: float, sigma_x: float, mu_y: float, sigma_y: float
) -> RatioGaussian:
    """Gaussian approximation to X/Y for independent Gaussians X and Y.

        mu_z = mu_x / mu_y
        sigma_z^2 = (mu_x^2 / mu_y^2) (sigma_x^2 / mu_x^2 + sigma_y^2 / mu_y^2)

    Valid when the denominator is far from zero; if sigma_y/|mu_y| >= 0.1 the
    result carries a warning instead of failing.
    """
    if mu_y == 0.0:
        raise ZeroDivisionError("ratio approximation undefined for mu_y = 0")
    mu_z = mu_x / mu_y
    # Same expression with the mu_x^2 factor multiplied through, so mu_x = 0
    # stays finite.
    var_z = (sigma_x / mu_y) ** 2 + (mu_x * sigma_y / mu_y**2) ** 2
    warning = None
    cv_y = abs(sigma_y / mu_y)
    if cv_y >= RATIO_CV_GUARD:
        warning = (
            f"denominator coefficient of variation {cv_y:.3g} >= {RATIO_CV_GUARD}; "
            "the Gaussian ratio approximation may be inaccurate"
        )
    return RatioGaussian(mu=float(mu_z), sigma=float(np.sqrt(var_z)), warning=warning)


def predict_q_distribution(
    g: geometry.ScenarioGeometry,
    nm: geometry.NoiseModel,
    ordering: str = edm.DEFAULT_ORDERING,
    gap_tol_rel: float = GAP_TOL_REL_DEFAULT,
) -> StatisticDistribution:
    """Predict the fault-free Gaussian distribution of q for a scenario.

    Pipeline: nominal (noiseless, biased) pseudoranges -> centered Gram ->
    tracked spectrum -> per-satellite sensitivities -> numerator and
    denominator moments -> Gaussian ratio. Numerator and denominator are
    treated as independent; their first-order covariance is reported as a
    diagnostic so the assumption can be checked.
    """
    if nm.effective_bias == 0.0:
        raise DegenerateEigenvalueError(
            "effective clock bias is zero, so the eigenvectors of the fourth and "
            "fifth eigenvalues are set by the noise itself and cannot be tracked; "
            "keep the clock bias in the pseudoranges or add bias inflation"
        )
    d = geometry.true_ranges(g)
    sample = geometry.nominal_pseudoranges(d, nm)
    spec = edm.spectrum(edm.centered_gram(g.satellites, sample.rho), ordering)
    gs = gram_sensitivities(sample.rho)
    table = eigenvalue_sensitivities(spec, gs, TRACKED_DEFAULT, gap_tol_rel)

    lam1 = table.nominal_value(1)
    num = numerator_moments(table, table.nominal_value(4), table.nominal_value(5), nm.sigma_v)
    sigma_den = 2.0 * np.sqrt(eigenvalue_variance(table.row(1), nm.sigma_v))
    mu_den = 2.0 * lam1
    ratio = ratio_gaussian(num.mu, num.sigma, mu_den, sigma_den)
    cov = float(np.sum((table.row(4) + table.row(5)) * 2.0 * table.row(1)) * nm.sigma_v**2)
    warnings = (ratio.warning,) if ratio.warning else ()
    return StatisticDistribution(
        mu_num=num.mu,
        sigma_num=num.sigma,
        sigma_num_independent=num.sigma_independent,
        mu_den=mu_den,
        sigma_den=float(sigma_den),
        mu_q=ratio.mu,
        sigma_q=ratio.sigma,
        covariance_num_den=cov,
        validity_warnings=warnings,
        ordering=ordering,
    )


def detection_threshold(dist: StatisticDistribution, p_fa: float) -> DetectionThresholds:
    """Gaussian detection thresholds at false-alarm probability ``p_fa``.

    Returns both the symmetric two-sided pair mu_q -/+ z(1 - p_fa/2) sigma_q
    and the one-sided upper threshold mu_q + z(1 - p_fa) sigma_q; the caller
    picks. A zero sigma_q collapses everything onto mu_q and is flagged.
    """
    if not 0.0 < p_fa < 0.5:
        raise ValueError(f"p_fa must lie in (0, 0.5), got {p_fa}")
    if dist.sigma_q == 0.0:
        return DetectionThresholds(dist.mu_q, dist.mu_q, dist.mu_q, p_fa, True)
    z_two = ndtri(1.0 - p_fa / 2.0)
    z_one = ndtri(1.0 - p_fa)
    return DetectionThresholds(
        two_sided_lo=float(dist.mu_q - z_two * dist.sigma_q),
        two_sided_hi=float(dist.mu_q + z_two * dist.sigma_q),
        one_sided_hi=float(dist.mu_q + z_one * dist.sigma_q),
        p_fa=p_fa,
        degenerate=False,
    )
