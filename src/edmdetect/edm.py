"""Distance-matrix linear algebra and the eigenvalue-ratio test statistic.

The pipeline turns satellite positions and measured pseudoranges into a
double-centered Gram matrix. If the measurements are geometrically
consistent that matrix has rank 3; inconsistency (noise, clock bias, or a
fault) activates two additional eigenvalues, and the test statistic

    q = (lambda_4 + lambda_5) / (2 * lambda_1)

measures their size relative to the dominant one. All functions are pure,
except that rank5_eigvals, the trial kernel's per-block step, writes into
the workspace it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SpectrumError

# For the indefinite centered Gram matrix the bias-activated fifth eigenvalue
# is negative, so ranking by magnitude is what keeps positions 4 and 5 on the
# two activated eigenvalues; algebraic ranking would leave position 5 pinned
# to the zero cluster. Eigenvalues are therefore always ranked by magnitude,
# and the outputs record this label.
ORDERING_MAGNITUDE = "magnitude"

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

    Columns of ``eigenvectors`` pair with ``eigenvalues``, ranked by
    magnitude. Each eigenvector's largest-magnitude component is made
    positive so output is reproducible across eigensolver backends.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

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
    """``rho`` as floats, with shape (..., m) and every entry positive and finite."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 0 or rho.shape[-1] != m:
        raise ValueError(f"pseudorange vectors need {m} entries, one per satellite, "
                         f"got shape {rho.shape}")
    # min and max propagate NaN, so a NaN fails the first comparison.
    if rho.size and not 0 < rho.min() <= rho.max() < np.inf:
        raise GeometryError("pseudoranges must all be positive and finite")
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


class Rank5Factors:
    """The geometry's half of the rank-5 kernel, built once per scenario.

    With the receiver slot at the origin, P = [0; S] and J the centering
    projector, ``basis`` (4, m+1) holds the rows of an orthonormal basis Q0
    of [A, u] (A = J P, u = J e0), ``M0`` (4, 4) is B B^T with B = Q0^T A,
    ``ut`` (4,) is Q0^T u and ``sq`` (m,) the squared norms |s_j|^2 of the
    satellite positions (m, 3).
    """

    def __init__(self, satellites: np.ndarray):
        S = np.asarray(satellites, dtype=float)
        if not np.all(np.isfinite(S)):
            raise ValueError("positions must be finite")
        self.m = S.shape[0]
        n = self.m + 1
        P = np.vstack([np.zeros(3), S])
        A = P - P.mean(axis=0)
        u = np.full(n, -1.0 / n)
        u[0] += 1.0
        # Householder QR: Q0 is orthonormal even if A is rank-deficient.
        Q0, _ = np.linalg.qr(np.column_stack([A, u]))
        B = Q0.T @ A
        self.basis = np.ascontiguousarray(Q0.T)
        self.M0 = B @ B.T
        self.ut = Q0.T @ u
        self.sq = np.einsum("ij,ij->i", S, S)


class Rank5Workspace:
    """Feature-major buffers for rank5_eigvals blocks of up to ``k`` trials.

    Row i of an (m+1, k) buffer holds feature i of every trial in the block,
    so each step of the kernel is a few numpy calls on k-long rows. One
    workspace serves every block of a run: fresh arrays of this size per
    block are returned to the system when freed and page-faulted back in.
    """

    def __init__(self, m: int, k: int):
        n = m + 1
        self.rho = np.empty((m, k))
        self.w = np.empty((n, k))
        self.r = np.empty((n, k))
        self.prod = np.empty((4, n, k))
        self.a = np.empty((4, k))
        self.half_beta = np.empty(k)
        self.acc = np.empty((4, 8, k))
        self.pair = np.empty((4, 4, k))
        self.H = np.zeros((5, 5, k))
        # The five Ritz values and one of the m - 4 exact zeros: enough to rank.
        self.eig = np.zeros((k, 6))


# numpy adds a contiguous run of doubles pairwise (pairwise_sum in its
# loops_utils.h): fewer than 8 values one by one; up to _PW_BLOCK in eight
# interleaved accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
# then the rest one by one; longer runs as two halves split at a multiple
# of 8. A reduction starts from +0.0.
_PW_BLOCK = 128


def _row_sum(x: np.ndarray, out: np.ndarray, acc: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Sum x (..., n, k) over its rows into out (..., k) in numpy's order.

    Equals ``np.swapaxes(x, -1, -2).sum(axis=-1)`` bit for bit: a trial's
    sum comes out as if its n features were contiguous, whatever the
    layout, which is what keeps the feature-major kernel on the bits of the
    trial-major one. ``acc`` (..., 8, k) and ``pair`` (..., 4, k) are
    scratch.
    """
    n = x.shape[-2]
    if n > _PW_BLOCK:
        half = n // 2
        half -= half % 8
        _row_sum(x[..., :half, :], out, acc, pair)
        out += _row_sum(x[..., half:, :], np.empty_like(out), acc, pair)
        return out
    if n < 8:
        out.fill(0.0)
        stop = 0
    else:
        stop = n - n % 8
        r = x[..., :8, :]  # the eight accumulators
        if stop > 8:
            r = np.add(r, x[..., 8:16, :], out=acc)
            for i in range(16, stop, 8):
                r += x[..., i : i + 8, :]
        np.add(r[..., 0::2, :], r[..., 1::2, :], out=pair)
        np.add(pair[..., 0::2, :], pair[..., 1::2, :], out=acc[..., :2, :])
        np.add(acc[..., 0, :], acc[..., 1, :], out=out)
        out += 0.0  # the starting value: a -0.0 becomes +0.0, as in numpy
    for i in range(stop, n):
        out += x[..., i, :]
    return out


def rank5_eigvals(f: Rank5Factors, rho: np.ndarray, ws: Rank5Workspace) -> np.ndarray:
    """Non-zero eigenvalues of the centered Gram matrices of k trials.

    ``rho`` (m, k) holds one pseudorange vector per column. Writes w, its
    coordinates a on the basis, the rest r, the 5x5 matrices H and their
    eigenvalues into ``ws`` and returns ``ws.eig[:k]`` (k, 6): the five
    eigenvalues, unordered, then an exact zero. See centered_gram_eigvals
    for the algebra.
    """
    rho = _check_pseudoranges(rho.T, f.m).T
    k = rho.shape[1]
    n = f.m + 1
    w, r, a, hb = ws.w[:, :k], ws.r[:, :k], ws.a[:, :k], ws.half_beta[:k]
    prod, acc, pair = ws.prod[..., :k], ws.acc[..., :k], ws.pair[..., :k]
    # w = [-mean; v - mean], v_j = |s_j|^2 - rho_j^2.
    v, mean = w[1:], w[0]
    np.multiply(rho, rho, out=v)
    np.subtract(f.sq[:, None], v, out=v)
    _row_sum(v, mean, acc[0], pair[0])
    mean /= n
    v -= mean
    np.negative(mean, out=mean)
    np.multiply(f.basis[:, :, None], w, out=prod)
    _row_sum(prod, a, acc, pair)
    # r = w - a_1 q_1 - ... - a_4 q_4, subtracted in that order.
    np.multiply(a[:, None, :], f.basis[:, :, None], out=prod)
    np.subtract(w, prod[0], out=r)
    for p in prod[1:]:
        r -= p
    np.multiply(r, r, out=prod[0])
    _row_sum(prod[0], hb, acc[0], pair[0])
    np.sqrt(hb, out=hb)
    hb *= 0.5
    # H = [[M0 + (ut a^T + a ut^T) / 2, beta/2 ut], [beta/2 ut^T, 0]], one
    # (5, 5) matrix per column.
    H = ws.H[..., :k]
    top = H[:4, :4]
    np.multiply(f.ut[:, None, None], a, out=top)
    np.multiply(a[:, None, :], f.ut[None, :, None], out=prod[:, :4])
    top += prod[:, :4]
    top *= 0.5
    top += f.M0[:, :, None]
    np.multiply(f.ut[:, None], hb, out=H[4, :4])
    H[:4, 4] = H[4, :4]
    eig = ws.eig[:k]
    eig[:, :5] = np.linalg.eigvalsh(H.transpose(2, 0, 1))
    return eig


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
    here); the other m - 4 are exact zeros.

    The work splits in two: Rank5Factors holds the geometry's factors
    once, and rank5_eigvals runs a block of pseudorange vectors through
    them feature-major, in a Rank5Workspace. Each row costs O(m) plus a 5x5
    eigensolve. Every per-row reduction is elementwise across rows and sums
    in numpy's pairwise order (_row_sum), so a row's values are bit for bit
    those of the same row alone, or laid out row-major.
    """
    f = Rank5Factors(satellites)
    rho = _check_pseudoranges(rho, f.m)
    rows = rho.reshape(-1, f.m)
    out = np.zeros(rho.shape[:-1] + (f.m + 1,))
    eig = rank5_eigvals(f, rows.T, Rank5Workspace(f.m, len(rows)))
    out.reshape(-1, f.m + 1)[:, :5] = eig[:, :5]
    return out


def _order_indices(w: np.ndarray) -> np.ndarray:
    """Indices ranking eigenvalues along the last axis by magnitude, descending."""
    return np.argsort(-np.abs(w), axis=-1, kind="stable")


def spectrum(G_c: np.ndarray) -> GramSpectrum:
    """Eigendecomposition of a symmetric matrix, ranked by magnitude (signs kept)."""
    G_c = np.asarray(G_c, dtype=float)
    if not np.all(np.isfinite(G_c)):
        raise SpectrumError("matrix contains non-finite entries")
    w, V = np.linalg.eigh(G_c)
    idx = _order_indices(w)
    w = w[idx]
    V = V[:, idx]
    # Deterministic sign: largest-|component| entry of each column positive.
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    V = V * signs[None, :]
    return GramSpectrum(eigenvalues=w, eigenvectors=V)


def test_statistic(s: GramSpectrum) -> float:
    """q = (lambda_4 + lambda_5) / (2 * lambda_1) of a magnitude-ranked spectrum."""
    if s.n < 5:
        raise SpectrumError(f"need at least 5 eigenvalues, got {s.n}")
    lam1 = s.eigenvalues[0]
    if lam1 == 0.0:
        raise SpectrumError("leading eigenvalue is zero (degenerate geometry)")
    return float((s.eigenvalues[3] + s.eigenvalues[4]) / (2.0 * lam1))
