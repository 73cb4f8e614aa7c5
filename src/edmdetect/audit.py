"""Finite-difference and rank-structure audits of the prediction.

The finite-difference audit checks the analytic eigenvalue sensitivities
that the prediction propagates against central differences of spectra
recomputed in 40-digit decimal arithmetic (the stdlib's C-backed decimal
module), from the positions alone. Its reference side applies the trial
kernel's rank-5 reduction: one 5x5 cyclic Jacobi solve per perturbed
spectrum. The rank rows count the non-zero eigenvalues of noiseless
spectra. Only ``edmdetect audit`` needs this module; the package loads it
on first use, so ``predict`` and ``simulate`` never compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal, getcontext, localcontext

import numpy as np

from . import edm, geometry, perturbation
from .errors import SpectrumError

# Admissible central-difference steps h of the finite-difference audit.
FD_STEP_RANGE_M = (1e-6, 1.0)

# Tolerance and fixed step of the audit's FD row. The FD oracle runs at 40
# digits, so the step adds only truncation error: at 1e-6 m the discrepancy
# moves by under 0.1% (m = 5, 12 and 30); at 1 m it grows.
AUDIT_FD_TOL = 1e-4
AUDIT_FD_STEP = 1e-3


@dataclass
class FiniteDifferenceAudit:
    """Comparison of analytic sensitivities against central differences."""

    h: float
    positions: tuple[int, ...]
    sensitivities: np.ndarray  # (len(positions), m)
    finite_differences: np.ndarray  # (len(positions), m)
    relative_discrepancy: np.ndarray  # (len(positions), m)
    max_relative_discrepancy: float


def relative_discrepancy(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """|reference - other| / max(|reference|, 1), elementwise."""
    reference = np.asarray(reference, dtype=float)
    other = np.asarray(other, dtype=float)
    return np.abs(reference - other) / np.maximum(np.abs(reference), 1.0)


# The finite-difference oracle works in decimal floating point at this many
# significant digits, whatever the caller's decimal context.
_ORACLE_CONTEXT = Context(prec=40)

# Cyclic Jacobi converges quadratically; 5x5 spectra take 4-5 sweeps.
_JACOBI_MAX_SWEEPS = 60


def _jacobi_eigenvalues(A: list[list[Decimal]]) -> list[Decimal]:
    """Eigenvalues of a small symmetric Decimal matrix by cyclic Jacobi.

    Works at the current decimal context's precision. Each rotation uses
    Rutishauser's tau form and sets the annihilated pair to an exact zero;
    Jacobi keeps high relative accuracy on the small eigenvalues (Demmel &
    Veselic, SIAM J. Matrix Anal. Appl., 1992). Sweeps stop once the squared
    off-diagonal Frobenius norm is at most (10^-(prec+2) max|A|)^2. The
    eigenvalues come back unordered. Raises SpectrumError if
    _JACOBI_MAX_SWEEPS sweeps do not get there.
    """
    n = len(A)
    a = [list(row) for row in A]
    scale = max(abs(x) for row in a for x in row)
    tol = scale.scaleb(-(getcontext().prec + 2)) ** 2
    sweeps = 0
    while 2 * sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)) > tol:
        if sweeps == _JACOBI_MAX_SWEEPS:
            raise SpectrumError(f"Jacobi eigensolve did not converge in {sweeps} sweeps")
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if not apq:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * apq)
                t = 1 / (abs(theta) + (theta * theta + 1).sqrt())
                if theta < 0:
                    t = -t
                c = 1 / (t * t + 1).sqrt()
                s = t * c
                tau = s / (1 + c)
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = Decimal(0)
                for r in range(n):
                    if r != p and r != q:
                        g, h = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = g - s * (h + g * tau)
                        a[r][q] = a[q][r] = h + s * (g - h * tau)
    return [a[i][i] for i in range(n)]


def _rank5_oracle(satellites: np.ndarray):
    """Extended-precision spectra of the centered Gram at a fixed geometry.

    Returns ``eigenvalues(rho)``: the m + 1 eigenvalues of the centered Gram
    built from Decimal pseudoranges ``rho``, ranked by magnitude.
    Eigenvalue differences of order h * s sit ~9 decades below the matrix
    norm, far inside double-precision eigensolver noise, so everything is
    rebuilt in 40-digit decimal arithmetic (_ORACLE_CONTEXT, entered by the
    oracle itself) from the positions and rho alone; no float intermediate
    is reused.

    The algebra is edm.centered_gram_eigvals' rank-5 identity
    G_c = A A^T + 1/2 (u w^T + w u^T). An orthonormal basis of [A, u] comes
    from Gram-Schmidt once; each rho adds the part of w outside it, of norm
    beta. G_c on those five directions is the 5x5 H = R M R^T, where R holds
    the coordinates of A, u and w and M = diag(I_3, [[0, 1/2], [1/2, 0]]);
    its eigenvalues are the non-zero ones of G_c and the other m - 4 are
    exact zeros. So each spectrum costs O(m) work and one 5x5 Jacobi solve
    (_jacobi_eigenvalues), and neither D nor any (m+1) x (m+1) matrix is
    formed.

    Raises SpectrumError if a column of [A, u] has an exactly zero residual
    on the columns before it (a rank-deficient A), so no basis exists.
    """
    m = satellites.shape[0]
    n = m + 1
    zero = Decimal(0)

    def dot(x, y):
        return sum(xi * yi for xi, yi in zip(x, y))

    def project(basis, x):
        """Coordinates of x on ``basis`` and the residual: two Gram-Schmidt passes."""
        coef = [zero] * len(basis)
        for _ in range(2):
            for i, q in enumerate(basis):
                t = dot(q, x)
                coef[i] += t
                x = [xi - t * qi for xi, qi in zip(x, q)]
        return coef, x

    with localcontext(_ORACLE_CONTEXT):
        # Receiver slot at the origin: P = [0; S], A = J P, u = J e0.
        P = [[zero] * 3] + [[Decimal(float(c)) for c in row] for row in satellites]
        cols = []
        for k in range(3):
            mean = sum(p[k] for p in P) / n
            cols.append([p[k] - mean for p in P])
        cols.append([1 - Decimal(1) / n] + [-Decimal(1) / n] * m)
        basis, coords = [], []
        for k, c in enumerate(cols):
            coef, r = project(basis, c)
            norm = dot(r, r).sqrt()
            if norm == 0:
                raise SpectrumError(
                    f"column {k} of [A, u] lies in the span of the columns before it, "
                    "so the rank-5 basis does not exist (rank-deficient geometry)"
                )
            basis.append([ri / norm for ri in r])
            coords.append(coef + [norm] + [zero] * (4 - k))
        M0 = [[sum(coords[c][i] * coords[c][k] for c in range(3)) for k in range(5)]
              for i in range(5)]
        ut = coords[3]
        sq = [dot(p, p) for p in P[1:]]

    def eigenvalues(rho):
        with localcontext(_ORACLE_CONTEXT):
            v = [s2 - r * r for s2, r in zip(sq, rho)]
            mean = sum(v) / n
            a, r = project(basis, [-mean] + [vj - mean for vj in v])
            a.append(dot(r, r).sqrt())
            H = [[M0[i][k] + (ut[i] * a[k] + a[i] * ut[k]) / 2 for k in range(5)]
                 for i in range(5)]
            return sorted(_jacobi_eigenvalues(H) + [zero] * (m - 4), key=abs, reverse=True)

    return eigenvalues


def finite_difference_audit(
    g: geometry.ScenarioGeometry,
    nm: geometry.NoiseModel,
    h: float,
) -> FiniteDifferenceAudit:
    """Audit the analytic sensitivities with a central-difference oracle.

    For every tracked eigenvalue position i and satellite j the oracle value
    is (lambda_i(v_j = +h) - lambda_i(v_j = -h)) / (2h) with each perturbed
    spectrum recomputed from the positions in 40-digit arithmetic (see
    _rank5_oracle). The analytic side is the nominal linearisation
    the prediction uses. Discrepancies are relative with an absolute floor
    of 1 m^2/m.
    """
    lo, hi = FD_STEP_RANGE_M
    if not lo <= h <= hi:
        raise ValueError(f"step h must lie in [{lo:g}, {hi:g}] m, got {h}")
    rho, table = perturbation._nominal_linearisation(g, nm)

    fd = np.empty(table.s.shape)
    eigenvalues = _rank5_oracle(g.satellites)
    with localcontext(_ORACLE_CONTEXT):
        hd = Decimal(float(h))
        rho_d = [Decimal(float(x)) for x in rho]
        for j in range(g.m):
            plus = list(rho_d)
            plus[j] += hd
            minus = list(rho_d)
            minus[j] -= hd
            w_plus = eigenvalues(plus)
            w_minus = eigenvalues(minus)
            for a, pos in enumerate(table.positions):
                fd[a, j] = float((w_plus[pos - 1] - w_minus[pos - 1]) / (2 * hd))
    rel = relative_discrepancy(table.s, fd)
    return FiniteDifferenceAudit(
        h=h,
        positions=table.positions,
        sensitivities=table.s,
        finite_differences=fd,
        relative_discrepancy=rel,
        max_relative_discrepancy=float(rel.max()),
    )


def run_checks(
    geom: geometry.ScenarioGeometry, nm: geometry.NoiseModel
) -> list[tuple[str, float, float, bool]]:
    """(name, value, tolerance, passed) rows for every audit check.

    The rank rows count the non-zero eigenvalues the trial kernel gives for
    noiseless pseudoranges, without and with the clock bias, above the
    prediction's own gap floor (GAP_TOL_REL_DEFAULT of the largest magnitude).
    """
    err = finite_difference_audit(geom, nm, AUDIT_FD_STEP).max_relative_discrepancy
    rows = [(f"finite-difference max relative discrepancy (h={AUDIT_FD_STEP} m)",
             err, AUDIT_FD_TOL, err <= AUDIT_FD_TOL)]
    d = geometry.true_ranges(geom)
    for name, rho, rank in (
        ("rank collapse: non-zero eigenvalues, zero bias, no noise", d, 3),
        ("bias activation: non-zero eigenvalues with bias, no noise",
         geometry.nominal_pseudoranges(d, nm).rho, 5),
    ):
        w = np.abs(edm.centered_gram_eigvals(geom.satellites, rho))
        count = int(np.sum(w > perturbation.GAP_TOL_REL_DEFAULT * w.max()))
        rows.append((name, float(count), float(rank), count == rank))
    return rows
