"""Distance-matrix linear algebra and the eigenvalue-ratio test statistic.

The pipeline turns satellite positions and measured pseudoranges into a
double-centered Gram matrix. If the measurements are geometrically
consistent that matrix has rank 3; inconsistency (noise, clock bias, or a
fault) activates two additional eigenvalues, and the test statistic

    q = (lambda_4 + lambda_5) / (2 * lambda_1)

measures their size relative to the dominant one. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SpectrumError

ORDERING_ALGEBRAIC = "algebraic"
ORDERING_MAGNITUDE = "magnitude"
ORDERINGS = (ORDERING_ALGEBRAIC, ORDERING_MAGNITUDE)

# For the indefinite centered Gram matrix the bias-activated fifth eigenvalue
# is negative, so ranking by magnitude is what keeps positions 4 and 5 on the
# two activated eigenvalues; algebraic ranking leaves position 5 pinned to the
# zero cluster. Magnitude is therefore the default and the only ranking the
# trial kernel, the prediction and the FD audit use for q; algebraic ranking
# survives as the trial kernel's q_alt comparison.
DEFAULT_ORDERING = ORDERING_MAGNITUDE

_NEG_CLIP_REL = 1e-6


@dataclass
class SquaredDistanceMatrix:
    """Matrix of pairwise squared distances (meters^2), or a stack of them.

    Each matrix is symmetric with a zero diagonal and non-negative entries;
    leading axes, if any, index the stack.
    """

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)

    @property
    def n(self) -> int:
        return self.entries.shape[-1]


@dataclass
class GramSpectrum:
    """Eigenvalues (meters^2) and matched unit eigenvectors of a Gram matrix.

    Columns of ``eigenvectors`` pair with ``eigenvalues`` under the recorded
    ``ordering``. Each eigenvector's largest-magnitude component is made
    positive so output is reproducible across eigensolver backends.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ordering: str

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def eigenpair(self, position: int) -> tuple[float, np.ndarray]:
        """Return (eigenvalue, eigenvector) at 1-based ``position``."""
        if not 1 <= position <= self.n:
            raise IndexError(f"position {position} outside 1..{self.n}")
        return float(self.eigenvalues[position - 1]), self.eigenvectors[:, position - 1]


def gram_from_positions(X: np.ndarray) -> np.ndarray:
    """Gram matrix of the 3 x m position matrix: entry (i, j) = r_i . r_j."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("positions must be finite")
    G = X.T @ X
    return 0.5 * (G + G.T)


def edm_from_gram(G: np.ndarray) -> SquaredDistanceMatrix:
    """Squared-distance matrix from a Gram matrix.

    D_ij = G_ii - 2 G_ij + G_jj, which equals ||r_i - r_j||^2 when
    G = X^T X.
    """
    G = np.asarray(G, dtype=float)
    g = np.diag(G).copy()
    D = g[None, :] - 2.0 * G + g[:, None]
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    scale = np.abs(D).max() if D.size else 0.0
    if D.min() < -_NEG_CLIP_REL * max(scale, 1.0):
        raise ValueError("input Gram matrix produced significantly negative squared distances")
    np.clip(D, 0.0, None, out=D)
    return SquaredDistanceMatrix(entries=D)


def _check_pseudoranges(rho: np.ndarray, m: int) -> np.ndarray:
    """``rho`` as floats, with shape (..., m) and every entry positive."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 0 or rho.shape[-1] != m:
        raise ValueError(f"pseudorange vectors need {m} entries, one per satellite, "
                         f"got shape {rho.shape}")
    if np.any(rho <= 0):
        raise GeometryError("pseudoranges must all be positive")
    return rho


def augment_edm(
    D: SquaredDistanceMatrix | np.ndarray, rho: np.ndarray
) -> SquaredDistanceMatrix:
    """Augment the inter-satellite matrix with measured pseudoranges.

    Row and column 0 of the result hold rho_i^2; the (0, 0) corner is zero
    and the original block is untouched. ``rho`` of shape (..., m) gives a
    stack of shape (..., m+1, m+1), one matrix per pseudorange vector.
    """
    entries = D.entries if isinstance(D, SquaredDistanceMatrix) else np.asarray(D, dtype=float)
    m = entries.shape[0]
    if entries.shape != (m, m):
        raise ValueError(f"inter-satellite matrix must be square, got {entries.shape}")
    rho = _check_pseudoranges(rho, m)
    rho2 = rho**2
    out = np.zeros(rho.shape[:-1] + (m + 1, m + 1))
    out[..., 1:, 1:] = entries
    out[..., 0, 1:] = rho2
    out[..., 1:, 0] = rho2
    return SquaredDistanceMatrix(entries=out)


def centering_matrix(n: int) -> np.ndarray:
    """The projector J = I - (1/n) * ones that annihilates the ones vector."""
    return np.eye(n) - np.ones((n, n)) / n


def gram_centered(D_c: SquaredDistanceMatrix | np.ndarray) -> np.ndarray:
    """Double-center a squared-distance matrix: G_c = -1/2 * J D_c J.

    J is sized to the (m+1)-point matrix, so the result is symmetric and its
    rows sum to zero. A stack (..., n, n) is centered matrix by matrix.
    """
    entries = (
        D_c.entries if isinstance(D_c, SquaredDistanceMatrix) else np.asarray(D_c, dtype=float)
    )
    n = entries.shape[-1]
    if entries.ndim < 2 or entries.shape[-2] != n:
        raise ValueError(f"expected a square matrix, got {entries.shape}")
    J = centering_matrix(n)
    G = -0.5 * (J @ entries @ J)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def centered_gram(satellites: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Centered Gram matrix of satellites (m, 3) and pseudoranges rho (..., m).

    The whole pipeline gram_from_positions -> edm_from_gram -> augment_edm
    -> gram_centered. A stack of pseudorange vectors gives the stack of
    their matrices, built with the same operations as a single vector's.
    """
    D = edm_from_gram(gram_from_positions(np.asarray(satellites, dtype=float).T))
    return gram_centered(augment_edm(D, rho))


def centered_gram_eigvals(satellites: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., m+1) of centered_gram(satellites, rho), unordered.

    With the receiver slot at the origin, P = [0; S] and J the centering
    projector, the centered Gram matrix splits as

        G_c = A A^T + 1/2 (u w^T + w u^T),  A = J P,  u = J e0,
        w = J [0; |s_j|^2 - rho_j^2],

    so its rank is at most 5 (Dokmanic et al., "Euclidean Distance
    Matrices", IEEE SPM 2015). An orthonormal basis Q0 of [A, u] is fixed by
    the geometry; each pseudorange vector adds one direction, the part of w
    outside Q0. G_c restricted to those five directions is a 5x5 matrix H
    whose eigenvalues are the non-zero ones of G_c (Rayleigh-Ritz, exact
    here); the other m - 4 are exact zeros. Each row costs O(m) plus a 5x5
    eigensolve, and every per-row reduction is elementwise, so a row's
    values do not depend on how many rows are stacked with it.
    """
    S = np.asarray(satellites, dtype=float)
    if not np.all(np.isfinite(S)):
        raise ValueError("positions must be finite")
    m = S.shape[0]
    rho = _check_pseudoranges(rho, m)
    n = m + 1
    P = np.vstack([np.zeros(3), S])
    A = P - P.mean(axis=0)
    u = np.full(n, -1.0 / n)
    u[0] += 1.0
    # Householder QR: Q0 is orthonormal even if A is rank-deficient.
    Q0, _ = np.linalg.qr(np.column_stack([A, u]))
    B = Q0.T @ A
    M0 = B @ B.T
    ut = Q0.T @ u

    v = np.einsum("ij,ij->i", S, S) - rho**2
    mean = v.sum(axis=-1, keepdims=True) / n
    w = np.concatenate([-mean, v - mean], axis=-1)
    a = np.stack([(w * q).sum(axis=-1) for q in Q0.T], axis=-1)
    r = w
    for i, q in enumerate(Q0.T):
        r = r - a[..., i, None] * q
    half_beta = 0.5 * np.sqrt((r * r).sum(axis=-1))

    H = np.zeros(rho.shape[:-1] + (5, 5))
    H[..., :4, :4] = M0 + 0.5 * (ut[:, None] * a[..., None, :] + a[..., :, None] * ut)
    H[..., 4, :4] = half_beta[..., None] * ut
    H[..., :4, 4] = H[..., 4, :4]
    out = np.zeros(rho.shape[:-1] + (n,))
    out[..., :5] = np.linalg.eigvalsh(H)
    return out


def _order_indices(w: np.ndarray, ordering: str) -> np.ndarray:
    """Indices ranking eigenvalues along the last axis per ``ordering``."""
    if ordering == ORDERING_ALGEBRAIC:
        return np.argsort(-w, axis=-1, kind="stable")
    if ordering == ORDERING_MAGNITUDE:
        return np.argsort(-np.abs(w), axis=-1, kind="stable")
    raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")


def spectrum(G_c: np.ndarray, ordering: str = DEFAULT_ORDERING) -> GramSpectrum:
    """Eigendecomposition of a symmetric matrix, sorted per ``ordering``.

    ``algebraic`` sorts by signed value descending; ``magnitude`` sorts by
    absolute value descending (signed values are kept either way).
    """
    G_c = np.asarray(G_c, dtype=float)
    if not np.all(np.isfinite(G_c)):
        raise SpectrumError("matrix contains non-finite entries")
    w, V = np.linalg.eigh(G_c)
    idx = _order_indices(w, ordering)
    w = w[idx]
    V = V[:, idx]
    # Deterministic sign: largest-|component| entry of each column positive.
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs[None, :]
    return GramSpectrum(eigenvalues=w, eigenvectors=V, ordering=ordering)


def test_statistic(s: GramSpectrum) -> float:
    """q = (lambda_4 + lambda_5) / (2 * lambda_1) under the spectrum's ordering."""
    if s.n < 5:
        raise SpectrumError(f"need at least 5 eigenvalues, got {s.n}")
    lam1 = s.eigenvalues[0]
    if lam1 == 0.0:
        raise SpectrumError("leading eigenvalue is zero (degenerate geometry)")
    return float((s.eigenvalues[3] + s.eigenvalues[4]) / (2.0 * lam1))
