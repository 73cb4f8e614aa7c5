"""Distance-matrix linear algebra and the eigenvalue-ratio test statistic.

The pipeline turns satellite positions and measured pseudoranges into a
double-centered Gram matrix. If the measurements are geometrically
consistent that matrix has rank 3; inconsistency (noise, clock bias, or a
fault) activates two additional eigenvalues, and the test statistic

    q = (lambda_4 + lambda_5) / (2 * lambda_1)

measures their size relative to the dominant one. All functions are pure,
except that rank5_eigvals, the trial kernel's per-block step, and
rank5_by_magnitude write into the buffers they are given.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import GeometryError, SpectrumError

# The largest coordinate, orbit radius, range, pseudorange, sigma_v or |bias|
# (m). The kernel squares w, z and h0, of order n |r|^2; 2^-48 of the largest
# float's fourth root leaves 2^192 for n^2 and the constants.
MAX_LENGTH_M = sys.float_info.max**0.25 / 2.0**48
# The smallest scenario length scale L (m). The kernel's h0 holds
# a_i^2 nu^2 / (4 sigma_i^2), of order |r|^4 / L^2: with pseudoranges at
# MAX_LENGTH_M and at 2^-60 of it, it first overflowed at L = 2^-94 m on
# generated constellations (m = 5 to 60) and at 2^-78 m on the flattest
# checked-in ring; the bound is 2^16 above that.
MIN_LENGTH_M = 2.0**-62

_NEG_CLIP_REL = 1e-6


def checked_positions(X: np.ndarray) -> np.ndarray:
    """``X`` as floats, with every coordinate finite and at most MAX_LENGTH_M in magnitude."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.abs(X) <= MAX_LENGTH_M):  # NaN fails too
        raise GeometryError(
            f"positions must be finite, with coordinates at most {MAX_LENGTH_M:.4g} m in magnitude")
    return X


def gram_from_positions(X: np.ndarray) -> np.ndarray:
    """Gram matrix of the 3 x m position matrix: entry (i, j) = r_i . r_j."""
    X = checked_positions(X)
    G = X.T @ X
    return 0.5 * (G + G.T)


def edm_from_gram(G: np.ndarray) -> np.ndarray:
    """Squared-distance matrix (meters^2, a plain float array) from a Gram matrix.

    D_ij = G_ii - 2 G_ij + G_jj, which equals ||r_i - r_j||^2 when
    G = X^T X: symmetric, with a zero diagonal and non-negative entries.
    """
    G = np.asarray(G, dtype=float)
    g = np.diag(G).copy()
    D = g[None, :] - 2.0 * G + g[:, None]
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    if D.min() < -_NEG_CLIP_REL * np.abs(D).max():
        raise ValueError("input Gram matrix produced significantly negative squared distances")
    np.clip(D, 0.0, None, out=D)
    return D


def checked_ranges(rho: np.ndarray, m: int) -> np.ndarray:
    """``rho`` as floats, with shape (..., m) and every entry in (0, MAX_LENGTH_M]."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim == 0 or rho.shape[-1] != m:
        raise ValueError(f"range vectors need {m} entries, one per satellite, "
                         f"got shape {rho.shape}")
    if rho.size and not 0 < rho.min():  # min propagates NaN, so NaN fails here
        raise GeometryError(
            f"ranges must all be positive and finite; the smallest is {rho.min():.4g} m")
    if rho.size and not rho.max() <= MAX_LENGTH_M:
        raise GeometryError(
            "ranges must all be positive and finite, with finite squares of their squares "
            f"(at most {MAX_LENGTH_M:.4g} m); the largest is {rho.max():.4g} m")
    return rho


def augment_edm(D: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Augment the inter-satellite matrix with measured pseudoranges.

    Row and column 0 of the result hold rho_i^2; the (0, 0) corner is zero
    and the original block is untouched. ``rho`` of shape (..., m) gives a
    stack of shape (..., m+1, m+1), one matrix per pseudorange vector.
    """
    D = np.asarray(D, dtype=float)
    m = D.shape[0]
    if D.shape != (m, m):
        raise ValueError(f"inter-satellite matrix must be square, got {D.shape}")
    rho = checked_ranges(rho, m)
    rho2 = rho**2
    out = np.zeros(rho.shape[:-1] + (m + 1, m + 1))
    out[..., 1:, 1:] = D
    out[..., 0, 1:] = rho2
    out[..., 1:, 0] = rho2
    return out


def centering_matrix(n: int) -> np.ndarray:
    """The projector J = I - (1/n) * ones that annihilates the ones vector."""
    return np.eye(n) - np.ones((n, n)) / n


def gram_centered(D_c: np.ndarray) -> np.ndarray:
    """Double-center a squared-distance matrix: G_c = -1/2 * J D_c J.

    J is sized to the (m+1)-point matrix, so the result is symmetric and its
    rows sum to zero. A stack (..., n, n) is centered matrix by matrix.
    """
    D_c = np.asarray(D_c, dtype=float)
    n = D_c.shape[-1]
    if D_c.ndim < 2 or D_c.shape[-2] != n:
        raise ValueError(f"expected a square matrix, got {D_c.shape}")
    J = centering_matrix(n)
    G = -0.5 * (J @ D_c @ J)
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

    With the receiver slot at the origin, P = [0; S], J the centering
    projector, A = J P and u = J e0 = nu q0 with nu = sqrt(m / (m+1)):
    ``basis`` (3, m+1) holds the rows of U in the thin SVD
    A - q0 q0^T A = U diag(sigma) V^T, so that [q0, U] is orthonormal and
    A A^T on it is [[|c|^2, (sigma c)^T], [sigma c, diag(sigma^2)]] with
    c = V^T A^T q0. ``poles`` (4,) are (sigma_1^2, sigma_2^2, sigma_3^2, 0),
    decreasing, and ``sq`` (m,) the squared norms |s_j|^2 of the satellite
    positions (m, 3). The rest are per-geometry constants of the kernel
    (see rank5_eigvals and _secular_roots).
    """

    def __init__(self, satellites: np.ndarray):
        S = checked_positions(satellites)
        self.m = S.shape[0]
        n = self.m + 1
        P = np.vstack([np.zeros(3), S])
        A = P - P.mean(axis=0)
        u = np.full(n, -1.0 / n)
        u[0] += 1.0
        self.nu = np.sqrt(self.m / n)
        self.q0 = u / self.nu
        # Householder QR: the last three columns of Q are orthonormal and
        # orthogonal to q0 even if A is rank-deficient.
        Q, _ = np.linalg.qr(np.column_stack([u, A]))
        Ub, sigma, Vt = np.linalg.svd(Q[:, 1:].T @ A)
        c = Vt @ (A.T @ self.q0)
        self.basis = np.ascontiguousarray((Q[:, 1:] @ Ub).T)
        self.sq = np.einsum("ij,ij->i", S, S)
        self.poles = np.append(sigma**2, 0.0)
        self.sigma_c = sigma * c
        self.cc = c @ c
        # A rank-deficient A has sigma_3 = 0. No lane can then interlace
        # strictly, so every lane takes the fallback and the infinities and
        # NaNs that follow from these divisions reach no result.
        with np.errstate(divide="ignore", invalid="ignore"):
            # h0 = w0 - sum_i h0_lin_i a_i - sum_i h0_sq_i a_i^2.
            self.h0_lin = self.nu * c / sigma
            self.h0_sq = 0.25 * self.nu**2 / self.poles[:3]
        # Root j of (lambda_1 .. lambda_5) sits on pole _POLE[j], with
        # tau = lambda - poles[_POLE[j]] in the bracket (tau_lo, tau_hi)
        # that strict interlacing gives; its secular function has one term
        # per other pole, at offset ``gaps`` (5, 3) from its own.
        d = self.poles
        self.gaps = d[_OTHER] - d[_POLE][:, None]
        self.tau_lo = np.array([0.0, 0.0, 0.0, 0.0, -np.inf])[:, None]
        self.tau_hi = np.array([np.inf, d[0] - d[1], d[1] - d[2], d[2], 0.0])[:, None]


# lambda_1 > sigma_1^2 > lambda_2 > sigma_2^2 > lambda_3 > sigma_3^2 >
# lambda_4 > 0 > lambda_5: the pole each root is solved from, and the others.
_POLE = np.array([0, 1, 2, 3, 3])
_OTHER = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2], [0, 1, 2]])

# Newton steps per root, and the largest last step, relative to |lambda|,
# that certifies a lane.
_NEWTON_STEPS = 5
_CERTIFY_REL = 1e-13


class Rank5Workspace:
    """Feature-major buffers for rank5_eigvals blocks of up to ``k`` trials.

    Row i of an (m+1, k) buffer holds feature i of every trial in the block,
    so each step of the kernel is a few numpy calls on k-long rows; the
    secular solve's ``roots`` and ``terms`` hold one row per root, or per
    root and other pole. One workspace serves every block of a run: the
    same buffers allocated afresh per block give the same bits and user
    CPU, but cost system CPU, as glibc returns and refaults their pages.
    """

    def __init__(self, m: int, k: int):
        n = m + 1
        shapes = {
            "rho": (m, k), "w": (n, k), "prod": (n, k), "a": (3, k), "w0": (k,),
            "alpha": (k,), "h0": (k,), "z2": (4, k), "roots": (5, 5, k),
            "terms": (3, 5, 3, k), "eig": (k, 5),
        }
        buf = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            setattr(self, name, buf[start:stop].reshape(shape))
            start = stop


def _row_sum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum x (n, k) over its rows into out (k,), row after row.

    Each step adds one row elementwise, so a column's sum has the same bits
    whatever the other columns are: a trial's bits depend on its own
    features alone.
    """
    np.copyto(out, x[0])
    for row in x[1:]:
        out += row
    return out


def rank5_eigvals(f: Rank5Factors, rho: np.ndarray, ws: Rank5Workspace) -> np.ndarray:
    """Non-zero eigenvalues of the centered Gram matrices of k trials.

    ``rho`` (m, k) holds one pseudorange vector per column. Writes w, its
    coordinates and each trial's arrowhead into ``ws`` and returns
    ``ws.eig[:k]`` (k, 5): the five eigenvalues, unordered. Trials the
    secular solve cannot certify take np.linalg.eigvalsh of their own
    arrowhead. See centered_gram_eigvals for the algebra.
    """
    rho = checked_ranges(rho.T, f.m).T
    k = rho.shape[1]
    w, prod, a, w0 = ws.w[:, :k], ws.prod[:, :k], ws.a[:, :k], ws.w0[:k]
    alpha, h0, z2 = ws.alpha[:k], ws.h0[:k], ws.z2[:, :k]
    # w = [-mean; v - mean], v_j = |s_j|^2 - rho_j^2.
    v = w[1:]
    np.multiply(rho, rho, out=v)
    np.subtract(f.sq[:, None], v, out=v)
    _row_sum(v, w0)
    w0 /= f.m + 1
    v -= w0
    np.negative(w0, out=w0)
    w[0] = w0
    # a = U^T w; w's coordinate on q0 is w0 / nu, as w sums to zero.
    for i in range(3):
        np.multiply(f.basis[i][:, None], w, out=prod)
        _row_sum(prod, a[i])
    # The rest r = w - (w0 / nu) q0 - a_1 U_1 - a_2 U_2 - a_3 U_3, subtracted
    # in that order in place of w, and z_4^2 = (nu |r| / 2)^2.
    np.divide(w0, f.nu, out=alpha)
    np.multiply(f.q0[:, None], alpha, out=prod)
    w -= prod
    for i in range(3):
        np.multiply(f.basis[i][:, None], a[i], out=prod)
        w -= prod
    np.multiply(w, w, out=prod)
    _row_sum(prod, z2[3])
    z2[3] *= 0.25 * f.nu**2
    # h0 = w0 - sum_i (h0_lin_i a_i + h0_sq_i a_i^2), with alpha as scratch.
    # h0_sq grows as 1/sigma_3^2, so a lane of a near-planar origin and
    # satellites can overflow here; its non-finite h0 fails certification.
    np.copyto(h0, w0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(3):
            np.multiply(a[i], f.h0_lin[i], out=alpha)
            h0 -= alpha
            np.multiply(a[i], a[i], out=alpha)
            alpha *= f.h0_sq[i]
            h0 -= alpha
    # z_i = sigma_i c_i + nu a_i / 2 and alpha = |c|^2 + w0.
    np.multiply(a, 0.5 * f.nu, out=z2[:3])
    z2[:3] += f.sigma_c[:, None]
    z2[:3] *= z2[:3]
    np.add(w0, f.cc, out=alpha)
    lam, certified = _secular_roots(f, alpha, h0, z2, ws)
    eig = ws.eig[:k]
    eig[:] = lam.T
    bad = np.flatnonzero(~certified)
    if bad.size:
        eig[bad] = np.linalg.eigvalsh(_arrowhead(f, alpha[bad], a[:, bad], z2[3, bad]))
    return eig


def _arrowhead(
    f: Rank5Factors, alpha: np.ndarray, a: np.ndarray, z4sq: np.ndarray
) -> np.ndarray:
    """The (k, 5, 5) arrowheads [[alpha, z^T], [z, diag(poles)]] of k trials."""
    H = np.zeros((alpha.size, 5, 5))
    H[:, 0, 0] = alpha
    H[:, 0, 1:4] = (f.sigma_c[:, None] + 0.5 * f.nu * a).T
    H[:, 0, 4] = np.sqrt(z4sq)
    H[:, 1:, 0] = H[:, 0, 1:]
    H[:, range(1, 5), range(1, 5)] = f.poles
    return H


def _secular_roots(
    f: Rank5Factors, alpha: np.ndarray, h0: np.ndarray, z2: np.ndarray, ws: Rank5Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues (5, k) of k arrowheads, and which lanes are certified.

    Root j solves F(tau) = tau h(tau) + z_p^2 = 0 for tau = lambda - d_p,
    where d_p is its pole and h the secular function without that pole:
    h(tau) = alpha - d_p - tau - sum_i z_i^2 / (e_i - tau) over the other
    poles, at offsets e_i = d_i - d_p. For lambda_4 and lambda_5 (the zero
    pole) h is taken as h0 - tau - tau sum_i (z_i^2 / e_i) / (e_i - tau),
    which subtracts no two large numbers near tau = 0. Each root then takes
    _NEWTON_STEPS Newton steps from a start inside its bracket: for
    lambda_1..3 the upper eigenvalue of [[alpha, z_p], [z_p, d_p]], for
    lambda_4 and lambda_5 the roots of tau (h0 + h'(0) tau) + z_4^2. A lane
    is certified when every last step is within _CERTIFY_REL of |lambda|
    and the roots interlace the poles strictly.

    Every step is elementwise per lane, so a lane's bits depend on its own
    inputs alone. Non-finite values in a lane fail its certification, so
    their floating-point warnings are silenced.
    """
    k = alpha.size
    tau, base, zp2, h, g = ws.roots[..., :k]
    y, t, pr = ws.terms[..., :k]
    e = f.gaps[:, :, None]
    hi = f.tau_hi
    np.take(z2, _POLE, axis=0, out=zp2)
    np.take(z2, _OTHER, axis=0, out=y)
    with np.errstate(all="ignore"):
        np.subtract(alpha, f.poles[:3, None], out=base[:3])
        base[3:] = h0
        y[3:] /= e[3:]
        # lambda_1..3 start at the 2x2's upper eigenvalue, as tau and without
        # cancellation: half + hyp, or z_p^2 / (hyp - half) when half <= 0;
        # lambda_2 and lambda_3 move to mid-bracket if outside it.
        half, hyp = g[:3], h[:3]
        np.multiply(base[:3], 0.5, out=half)
        np.multiply(half, half, out=hyp)
        hyp += zp2[:3]
        np.sqrt(hyp, out=hyp)
        np.add(half, hyp, out=tau[:3])
        hyp -= half
        np.divide(zp2[:3], hyp, out=hyp)
        np.copyto(tau[:3], hyp, where=half <= 0)
        # lambda_4 and lambda_5 start at the roots of the quadratic
        # h'(0) tau^2 + h0 tau + z_4^2, with h'(0) = -1 - sum z_i^2 / e_i^2
        # < 0, so one root has each sign: qd / h'(0) and z_4^2 / qd with
        # qd = -(h0 + sign(h0) sqrt(h0^2 - 4 h'(0) z_4^2)) / 2.
        h1, qd = g[3], h[3]
        np.divide(y[3], e[3], out=pr[3])
        np.add(pr[3, 0], pr[3, 1], out=h1)
        h1 += pr[3, 2]
        h1 += 1.0
        np.negative(h1, out=h1)
        np.multiply(h1, z2[3], out=h[4])
        h[4] *= 4.0
        np.multiply(h0, h0, out=qd)
        qd -= h[4]
        np.sqrt(qd, out=qd)
        np.copysign(qd, h0, out=qd)
        qd += h0
        qd *= -0.5
        np.divide(qd, h1, out=h[4])
        np.divide(z2[3], qd, out=g[4])
        np.maximum(h[4], g[4], out=tau[3])
        np.minimum(h[4], g[4], out=tau[4])
        inner = tau[1:4]
        np.copyto(inner, 0.5 * hi[1:4], where=~((0 < inner) & (inner < hi[1:4])))
        for _ in range(_NEWTON_STEPS):
            # t = 1 / (e - tau); h = base - s sum y t - tau, with s = 1 for
            # lambda_1..3 and s = tau for lambda_4 and lambda_5; then
            # g = -h'(tau) = 1 + sum z^2 t^2, and the step F / F' with
            # F = tau h + z_p^2 and F' = h - tau g.
            np.subtract(e, tau[:, None, :], out=t)
            np.reciprocal(t, out=t)
            np.multiply(y, t, out=pr)
            np.add(pr[:, 0], pr[:, 1], out=h)
            h += pr[:, 2]
            h[3:] *= tau[3:]
            np.subtract(base, h, out=h)
            h -= tau
            pr *= t
            pr[3:] *= e[3:]  # y e = z^2 on the zero pole's rows
            np.add(pr[:, 0], pr[:, 1], out=g)
            g += pr[:, 2]
            g += 1.0
            g *= tau
            np.subtract(h, g, out=g)
            h *= tau
            h += zp2
            h /= g
            tau -= h
        ok = (f.tau_lo < tau) & (tau < hi)
        lam = np.add(tau, f.poles[_POLE, None], out=g)
        np.abs(lam, out=base)
        base *= _CERTIFY_REL
        np.abs(h, out=h)
        ok &= h <= base
    return lam, ok.all(axis=0)


def centered_gram_eigvals(satellites: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., m+1) of centered_gram(satellites, rho), unordered.

    With the receiver slot at the origin, P = [0; S] and J the centering
    projector, the centered Gram matrix splits as

        G_c = A A^T + 1/2 (u w^T + w u^T),  A = J P,  u = J e0,
        w = J [0; |s_j|^2 - rho_j^2],

    so its rank is at most 5 (Dokmanic et al., "Euclidean Distance
    Matrices", IEEE SPM 2015). The geometry fixes an orthonormal basis
    [q0, U] of span(A, u): q0 = u / |u| and U from the SVD of A with q0
    projected out, so A A^T on it is diagonal but for q0's row and column.
    Each pseudorange vector adds one direction, the part r of w outside it.
    On these five directions G_c is the arrowhead

        H = [[alpha, z^T], [z, diag(sigma_1^2, sigma_2^2, sigma_3^2, 0)]],

    whose eigenvalues are the non-zero ones of G_c (Rayleigh-Ritz, exact
    here); the other m - 4 are exact zeros. They are the roots of one
    scalar secular equation, which interlace the fixed poles (Golub, "Some
    modified matrix eigenvalue problems", SIAM Review 1973), and a
    vectorised Newton solve finds them (_secular_roots).

    The work splits in two: Rank5Factors holds the geometry's factors
    once, and rank5_eigvals runs a block of pseudorange vectors through
    them feature-major, in a Rank5Workspace. Each row costs O(m) plus a
    fixed number of Newton steps. Every per-row sum adds the features in
    one fixed order, elementwise across rows (_row_sum), and every solver
    step is elementwise too, so a row's values are bit for bit those of the
    same row alone.
    """
    f = Rank5Factors(satellites)
    rho = checked_ranges(rho, f.m)
    rows = rho.reshape(-1, f.m)
    out = np.zeros(rho.shape[:-1] + (f.m + 1,))
    out.reshape(-1, f.m + 1)[:, :5] = rank5_eigvals(f, rows.T, Rank5Workspace(f.m, len(rows)))
    return out


def _order_indices(w: np.ndarray) -> np.ndarray:
    """Indices ranking eigenvalues along the last axis by magnitude, descending.

    The centered Gram matrix is indefinite: the bias-activated fifth
    eigenvalue is negative. Ranking by magnitude keeps positions 4 and 5 on
    the two activated eigenvalues, where algebraic ranking would leave
    position 5 in the zero cluster. Every spectrum is ranked this way.
    """
    return np.argsort(-np.abs(w), axis=-1, kind="stable")


def rank5_by_magnitude(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rank5_eigvals' (k, 5) values, ranked into ``out`` as _order_indices ranks them.

    A certified lane comes out as lambda_1 >= lambda_2 >= lambda_3 >
    lambda_4 > 0 > lambda_5, so a swap of lambda_4 and lambda_5 where
    |lambda_5| > lambda_4 ranks it (none on a tie, as the stable sort keeps
    the first). Only the lanes a swap cannot rank are sorted: those with
    |lambda_5| > lambda_3, and the eigvalsh fallback's ascending ones.
    """
    out[:] = w
    a = np.abs(w)
    np.copyto(out[:, 3:], w[:, :2:-1], where=(a[:, 4] > a[:, 3])[:, None])
    # The swap ranks lanes with |w_1| >= |w_2| >= |w_3| >= |w_4|, |w_5|.
    sort = (a[:, 0] < a[:, 1]) | (a[:, 1] < a[:, 2]) | (a[:, 2] < np.maximum(a[:, 3], a[:, 4]))
    sort = np.flatnonzero(sort)
    if sort.size:
        out[sort] = np.take_along_axis(w[sort], _order_indices(w[sort]), axis=-1)
    return out


def spectrum(G_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh's (w, V) of a symmetric matrix, ranked by magnitude (signs kept).

    Column V[:, i] is the unit eigenvector of w[i] (meters^2), with the sign
    the eigensolver gave it; the sensitivities built from it ignore that sign.
    """
    G_c = np.asarray(G_c, dtype=float)
    if not np.all(np.isfinite(G_c)):
        raise SpectrumError("matrix contains non-finite entries")
    w, V = np.linalg.eigh(G_c)
    idx = _order_indices(w)
    return w[idx], V[:, idx]


def test_statistic(s: tuple[np.ndarray, np.ndarray]) -> float:
    """q = (lambda_4 + lambda_5) / (2 * lambda_1) of spectrum's ranked (w, V)."""
    w = s[0]
    if w.shape[0] < 5:
        raise SpectrumError(f"need at least 5 eigenvalues, got {w.shape[0]}")
    if w[0] == 0.0:
        raise SpectrumError("leading eigenvalue is zero (degenerate geometry)")
    return float((w[3] + w[4]) / (2.0 * w[0]))
