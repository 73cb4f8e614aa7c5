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

from .errors import SpectrumError

ORDERING_ALGEBRAIC = "algebraic"
ORDERING_MAGNITUDE = "magnitude"
ORDERINGS = (ORDERING_ALGEBRAIC, ORDERING_MAGNITUDE)

# For the indefinite centered Gram matrix the bias-activated fifth eigenvalue
# is negative, so ranking by magnitude is what keeps positions 4 and 5 on the
# two activated eigenvalues; algebraic ranking leaves position 5 pinned to the
# zero cluster. Magnitude is therefore the default; algebraic stays available
# for comparison.
DEFAULT_ORDERING = ORDERING_MAGNITUDE

KIND_INTER_SATELLITE = "inter-satellite"
KIND_AUGMENTED = "augmented"

_NEG_CLIP_REL = 1e-6


@dataclass
class SquaredDistanceMatrix:
    """Matrix of pairwise squared distances (meters^2).

    ``kind`` distinguishes the m x m inter-satellite matrix from the
    (m+1) x (m+1) matrix augmented with measured pseudoranges in row and
    column 0. Symmetric with a zero diagonal and non-negative entries.
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.kind not in (KIND_INTER_SATELLITE, KIND_AUGMENTED):
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


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
    return SquaredDistanceMatrix(entries=D, kind=KIND_INTER_SATELLITE)


def augment_edm(
    D: SquaredDistanceMatrix | np.ndarray, rho: np.ndarray
) -> SquaredDistanceMatrix:
    """Augment the inter-satellite matrix with measured pseudoranges.

    Row and column 0 of the result hold rho_i^2; the (0, 0) corner is zero
    and the original block is untouched.
    """
    entries = D.entries if isinstance(D, SquaredDistanceMatrix) else np.asarray(D, dtype=float)
    rho = np.asarray(rho, dtype=float)
    m = entries.shape[0]
    if entries.shape != (m, m):
        raise ValueError(f"inter-satellite matrix must be square, got {entries.shape}")
    if rho.shape != (m,):
        raise ValueError(
            f"pseudorange vector has {rho.shape[0]} entries for {m} satellites"
        )
    if np.any(rho <= 0):
        raise ValueError("pseudoranges must all be positive")
    out = np.zeros((m + 1, m + 1))
    out[1:, 1:] = entries
    out[0, 1:] = rho**2
    out[1:, 0] = rho**2
    return SquaredDistanceMatrix(entries=out, kind=KIND_AUGMENTED)


def centering_matrix(n: int) -> np.ndarray:
    """The projector J = I - (1/n) * ones that annihilates the ones vector."""
    return np.eye(n) - np.ones((n, n)) / n


def gram_centered(D_c: SquaredDistanceMatrix | np.ndarray) -> np.ndarray:
    """Double-center a squared-distance matrix: G_c = -1/2 * J D_c J.

    J is sized to the (m+1)-point matrix, so the result is symmetric and its
    rows sum to zero.
    """
    entries = (
        D_c.entries if isinstance(D_c, SquaredDistanceMatrix) else np.asarray(D_c, dtype=float)
    )
    n = entries.shape[0]
    if entries.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {entries.shape}")
    J = centering_matrix(n)
    G = -0.5 * (J @ entries @ J)
    return 0.5 * (G + G.T)


def _order_indices(w: np.ndarray, ordering: str) -> np.ndarray:
    if ordering == ORDERING_ALGEBRAIC:
        return np.argsort(-w, kind="stable")
    if ordering == ORDERING_MAGNITUDE:
        return np.argsort(-np.abs(w), kind="stable")
    raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")


def spectrum(G_c: np.ndarray, ordering: str = DEFAULT_ORDERING) -> GramSpectrum:
    """Eigendecomposition of a symmetric matrix, sorted per ``ordering``.

    ``algebraic`` sorts by signed value descending; ``magnitude`` sorts by
    absolute value descending (signed values are kept either way).
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
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
