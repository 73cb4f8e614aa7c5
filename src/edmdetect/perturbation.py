"""Analytic prediction of the fault-free distribution of the test statistic.

First-order eigenvalue perturbation: for a simple eigenpair (lambda, z) of
the nominal centered Gram matrix and per-satellite derivative matrices
dG_j = dG_c/dv_j, the noise response of the eigenvalue is the linear form

    lambda ~ lambda_nom + sum_j (z^T dG_j z / z^T z) * v_j,

so each tracked eigenvalue is Gaussian with an explicitly computable
variance. Each dG_j = -rho_j (u c_j^T + c_j u^T), with u = J e_0 and
c_j = J e_{j+1}, has rank 2, so the quotient has the O(m) closed form

    s_ij = -2 rho_j (z_0 - zbar)(z_{j+1} - zbar) / z^T z,   zbar = mean(z).

It needs only rho besides z, and is even in z, so no eigenvector's sign
moves it. The statistic q = (lambda_4 + lambda_5) / (2 * lambda_1) is then
approximated by the Gaussian for a ratio of two Gaussians with small
denominator spread.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from . import edm, geometry
from .errors import DegenerateEigenvalueError

TRACKED_DEFAULT = (1, 4, 5)

# Relative (to the largest |eigenvalue|) gap below which a tracked eigenvalue
# is treated as numerically multiple and first-order tracking refused; `audit`
# counts an eigenvalue as non-zero above the same fraction. Must sit well below
# the bias-activated fifth eigenvalue (~1e-8 of lambda_1 for a 1e5 m bias) yet
# well above double-precision spectral noise (~1e-15).
GAP_TOL_REL_DEFAULT = 1e-12

# Denominator coefficient of variation above which the Gaussian ratio
# approximation is no longer trusted; violations warn rather than fail.
RATIO_CV_GUARD = 0.1


class RatioGaussian(NamedTuple):
    mu: float
    sigma: float
    warning: str | None


@dataclass
class StatisticDistribution:
    """Predicted Gaussian parameters for numerator, denominator and q."""

    mu_num: float
    sigma_num: float
    mu_den: float
    sigma_den: float
    mu_q: float
    sigma_q: float
    covariance_num_den: float
    validity_warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "validity_warnings": list(self.validity_warnings)}


class DetectionThresholds(NamedTuple):
    two_sided_lo: float
    two_sided_hi: float
    one_sided_hi: float
    p_fa: float
    degenerate: bool


def gram_sensitivities(rho: np.ndarray) -> np.ndarray:
    """The pseudoranges rho (m,) as floats: all that fixes dG_c/dv_j.

    Perturbing pseudorange j touches the augmented matrix only at entries
    (0, j) and (j, 0), where d(rho_j^2)/dv_j = 2 rho_j, so

        dG_j = -1/2 * J E_j J,   E_j = 2 rho_j (e_0 e_j^T + e_j e_0^T),

    which is symmetric and centered by construction. No matrix is built:
    eigenvalue_sensitivities contracts the dG_j in closed form from rho.
    """
    return np.asarray(rho, dtype=float)


def eigenvalue_sensitivities(
    spec: tuple[np.ndarray, np.ndarray], rho: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-order response of the TRACKED_DEFAULT eigenvalues to each noise channel.

    ``spec`` is edm.spectrum's ranked (w, V) and ``rho`` (m,) the pseudoranges
    of gram_sensitivities. Returns (s, nominal): row a of s (3, m), in the
    closed form of the module docstring, and nominal[a] belong to position
    TRACKED_DEFAULT[a]. Every tracked eigenvalue must be
    simple: its gap to the rest of the spectrum has to exceed
    GAP_TOL_REL_DEFAULT times the largest eigenvalue magnitude, otherwise
    its eigenvector (and the linearization) is not well defined and a
    DegenerateEigenvalueError is raised.
    """
    w, V = spec
    tol = GAP_TOL_REL_DEFAULT * float(np.abs(w).max())
    rho = np.asarray(rho, dtype=float)
    rows = np.empty((len(TRACKED_DEFAULT), rho.shape[0]))
    nominal = np.empty(len(TRACKED_DEFAULT))
    for a, pos in enumerate(TRACKED_DEFAULT):
        lam, z = float(w[pos - 1]), V[:, pos - 1]
        others = np.delete(w, pos - 1)
        gap = float(np.abs(others - lam).min()) if others.size else np.inf
        if gap <= tol:
            raise DegenerateEigenvalueError(
                f"eigenvalue at position {pos} ({lam:.6e} m^2) is within "
                f"{gap:.3e} m^2 of its nearest neighbor (tolerance {tol:.3e} m^2); "
                "its eigenvector is unstable, so first-order tracking would be "
                "unreliable. A larger clock bias separates the activated eigenvalues."
            )
        zc = z - z.mean()
        rows[a] = -2.0 * rho * zc[0] * zc[1:] / float(z @ z)
        nominal[a] = lam
    return rows, nominal


def eigenvalue_variance(row: np.ndarray, sigma_v: float) -> float:
    """Var(lambda) = sum_j (s_j * sigma_v)^2 for one sensitivity row."""
    row = np.asarray(row, dtype=float)
    return float(np.sum((row * sigma_v) ** 2))


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


def _nominal_linearisation(
    g: geometry.ScenarioGeometry, nm: geometry.NoiseModel
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Nominal pseudoranges and their eigenvalue_sensitivities (s, nominal).

    Noiseless biased pseudoranges -> dense magnitude-ranked centered-Gram
    spectrum -> closed-form sensitivities. A zero clock bias is refused up
    front.
    """
    if nm.bias_b == 0.0:
        raise DegenerateEigenvalueError(
            "clock bias is zero, so the eigenvectors of the fourth and fifth "
            "eigenvalues are set by the noise itself and cannot be tracked; "
            "keep the clock bias in the pseudoranges"
        )
    rho = geometry.nominal_pseudoranges(geometry.true_ranges(g), nm).rho
    spec = edm.spectrum(edm.centered_gram(g.satellites, rho))
    return rho, eigenvalue_sensitivities(spec, rho)


def predict_q_distribution(
    g: geometry.ScenarioGeometry, nm: geometry.NoiseModel
) -> StatisticDistribution:
    """Predict the fault-free Gaussian distribution of q for a scenario.

    Pipeline: nominal linearisation (see _nominal_linearisation) ->
    numerator and denominator moments -> Gaussian ratio. The numerator's
    variance is that of the combined form sum_j (s4j + s5j) v_j, which keeps
    the covariance lambda_4 and lambda_5 inherit from shared noise.
    Numerator and denominator are treated as independent; their first-order
    covariance is reported as a diagnostic so the assumption can be checked.
    """
    _, (s, nominal) = _nominal_linearisation(g, nm)
    lam1, lam4, lam5 = nominal
    s1, s4, s5 = s
    mu_num = float(lam4 + lam5)
    sigma_num = np.sqrt(eigenvalue_variance(s4 + s5, nm.sigma_v))
    sigma_den = 2.0 * np.sqrt(eigenvalue_variance(s1, nm.sigma_v))
    mu_den = 2.0 * float(lam1)
    ratio = ratio_gaussian(mu_num, sigma_num, mu_den, sigma_den)
    cov = float(np.sum((s4 + s5) * 2.0 * s1) * nm.sigma_v**2)
    warnings = (ratio.warning,) if ratio.warning else ()
    return StatisticDistribution(
        mu_num=mu_num,
        sigma_num=sigma_num,
        mu_den=mu_den,
        sigma_den=float(sigma_den),
        mu_q=ratio.mu,
        sigma_q=ratio.sigma,
        covariance_num_den=cov,
        validity_warnings=warnings,
    )


def detection_threshold(dist: StatisticDistribution, p_fa: float) -> DetectionThresholds:
    """Gaussian detection thresholds at false-alarm probability ``p_fa``.

    Returns both the symmetric two-sided pair mu_q -/+ z(p_fa/2) sigma_q and
    the one-sided upper threshold mu_q + z(p_fa) sigma_q; the caller picks.
    The upper-tail quantile z(p) = -Phi^-1(p) (statistics.NormalDist) keeps
    full relative precision at small p, where Phi^-1(1 - p) loses digits to
    the rounding of 1 - p. A zero sigma_q collapses everything onto mu_q and
    is flagged.
    """
    if not 0.0 < p_fa / 2.0 < 0.25:  # the two-sided quantile needs p_fa / 2 > 0 too
        raise ValueError(f"p_fa must lie in (0, 0.5) with a nonzero half, got {p_fa}")
    if dist.sigma_q == 0.0:
        return DetectionThresholds(dist.mu_q, dist.mu_q, dist.mu_q, p_fa, True)
    z_two = -NormalDist().inv_cdf(p_fa / 2.0)
    z_one = -NormalDist().inv_cdf(p_fa)
    return DetectionThresholds(
        two_sided_lo=float(dist.mu_q - z_two * dist.sigma_q),
        two_sided_hi=float(dist.mu_q + z_two * dist.sigma_q),
        one_sided_hi=float(dist.mu_q + z_one * dist.sigma_q),
        p_fa=p_fa,
        degenerate=False,
    )
