"""Monte Carlo validation harness for the analytic q-distribution prediction.

Repeats noisy trials at a fixed geometry, collects the statistic and the
leading eigenvalues as columns of a TrialBatch, and compares the empirical
distribution with the first-order prediction. Trials run in fixed blocks of
1024; block b draws the noise of all its trials in one call from a Philox
counter-based stream keyed on the master seed with counter b (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). Trial t's noise thus
depends only on (master_seed, t): results are bit-identical for any worker
count, and a short run is a bit-exact prefix of a longer one. Each trial's
spectrum comes from the rank-5 Rayleigh-Ritz kernel of
edm.centered_gram_eigvals: O(m) work and a 5x5 eigensolve per trial instead
of building and solving the (m+1)x(m+1) centered Gram matrix. run_trials
builds the geometry's factors once (edm.Rank5Factors), runs every block
through edm.rank5_eigvals in one reused, feature-major workspace, and fills
its preallocated result columns in place; the values are bit for bit those
of centered_gram_eigvals. The finite-difference audit's
reference side applies the same rank-5 reduction in 40-digit decimal
arithmetic (the stdlib's C-backed decimal module), from the positions alone:
one 5x5 cyclic Jacobi solve per perturbed spectrum.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from decimal import Context, Decimal, getcontext, localcontext
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import edm, geometry, perturbation
from .errors import SpectrumError
from .perturbation import StatisticDistribution

# Trials are processed in fixed-size blocks so that batching (and the split
# across workers) never depends on the worker count.
_BLOCK = 1024

# One-sample Kolmogorov-Smirnov critical values D = c(alpha) / (sqrt(n) +
# 0.12 + 0.11/sqrt(n)) (Stephens' finite-n form of the asymptotic table).
KS_COEFF = {0.05: 1.358, 0.01: 1.628}

# Admissible central-difference steps h of the finite-difference audit.
FD_STEP_RANGE_M = (1e-6, 1.0)

_CORRELATION_LABELS = ("lambda1", "lambda4", "lambda5", "lambda4+lambda5")

_SQRT2 = math.sqrt(2.0)

# math.erfc applied elementwise; returns an object array.
_ERFC = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class TrialBatch:
    """Columnar results of k noisy trials; row t belongs to trial t.

    ``q`` and ``lambdas`` rank the eigenvalues by magnitude.
    """

    q: np.ndarray  # (k,)
    lambdas: np.ndarray  # (k, 5) leading eigenvalues by magnitude
    exceeded: np.ndarray | None  # (k,) bool, or None when no threshold was given

    def __len__(self) -> int:
        return self.q.shape[0]


@dataclass
class SimulationSummary:
    """Empirical statistics of a trial batch plus the comparison verdict data."""

    n_trials: int
    q_mean: float
    q_std: float
    lambda_mean: np.ndarray  # (5,)
    lambda_var: np.ndarray  # (5,)
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    ks_statistic: float
    ks_critical_5pct: float
    ks_critical_1pct: float
    false_alarm_rate: float | None
    correlation: np.ndarray  # (4, 4) over _CORRELATION_LABELS
    degenerate: bool
    predicted: StatisticDistribution

    def to_json_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "ordering": edm.ORDERING_MAGNITUDE,
            "q_mean": self.q_mean,
            "q_std": self.q_std,
            "lambda_mean": [float(x) for x in self.lambda_mean],
            "lambda_var": [float(x) for x in self.lambda_var],
            "histogram": {
                "edges": [float(x) for x in self.hist_edges],
                "counts": [int(x) for x in self.hist_counts],
            },
            "ks": {
                "statistic": self.ks_statistic,
                "critical_5pct": self.ks_critical_5pct,
                "critical_1pct": self.ks_critical_1pct,
            },
            "false_alarm_rate": self.false_alarm_rate,
            "correlation": {
                "labels": list(_CORRELATION_LABELS),
                "matrix": [[float(x) for x in row] for row in self.correlation],
            },
            "degenerate": self.degenerate,
            "predicted": self.predicted.to_json_dict(),
        }


def noise_key(master_seed: int) -> np.ndarray:
    """The 128-bit Philox key of a run, derived from seeds of any size."""
    return np.random.SeedSequence(master_seed).generate_state(2, np.uint64)


def block_noise(key: np.ndarray, block: int, k: int, m: int, sigma_v: float) -> np.ndarray:
    """Noise (k, m) of the first k trials of block ``block``, one row per trial.

    The block's stream starts at counter [0, 0, 0, block], so row i is the
    noise of trial block * _BLOCK + i whatever k is.
    """
    rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, block]))
    return rng.normal(0.0, sigma_v, (k, m))


def _trial_block(
    satellites: np.ndarray,
    d: np.ndarray,
    sigma_v: float,
    bias_b: float,
    key: np.ndarray,
    block: int,
    k: int,
    factors: edm.Rank5Factors | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    ws: edm.Rank5Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the first k trials of a block into out = (q, first-5 eigenvalues).

    The eigenvalues rank by magnitude. ``factors`` are the kernel's
    edm.Rank5Factors(satellites), which run_trials builds once per run;
    ``out`` holds the block's rows of the run's columns and ``ws`` the
    kernel's buffers. Each is made here when not given.
    """
    m = d.shape[0]
    if factors is None:
        factors = edm.Rank5Factors(satellites)
    if ws is None:
        ws = edm.Rank5Workspace(m, k)
    if out is None:
        out = (np.empty(k), np.empty((k, 5)))
    q, lambdas = out
    rho = ws.rho[:, :k]
    np.add((d + bias_b)[:, None], block_noise(key, block, k, m, sigma_v).T, out=rho)
    # Columns 5.. of the spectrum are exact zeros, so ranking the five Ritz
    # values with one of them gives the same first five values as ranking
    # all m + 1.
    w = edm.rank5_eigvals(factors, rho, ws)
    w = np.take_along_axis(w, edm._order_indices(w), axis=-1)
    lam1 = w[:, 0]
    bad = np.flatnonzero(lam1 == 0.0)
    if bad.size:
        raise SpectrumError(
            f"trial {block * _BLOCK + int(bad[0])}: leading eigenvalue is zero (degenerate geometry)"
        )
    np.divide(w[:, 3] + w[:, 4], 2.0 * lam1, out=q)
    lambdas[...] = w[:, :5]
    return out


def run_trials(
    g: geometry.ScenarioGeometry,
    nm: geometry.NoiseModel,
    n_trials: int,
    master_seed: int,
    threshold: float | None = None,
    workers: int = 1,
) -> TrialBatch:
    """Run ``n_trials`` independent noisy trials at a fixed geometry.

    When the one-sided upper ``threshold`` is given, the batch carries an
    exceedance flag per trial, q > threshold. ``workers`` > 1 fans the
    fixed-size trial blocks out to a process pool; outputs are identical
    for any worker count. The geometry's kernel factors are built
    once; the serial path then fills the result columns block by block in
    place, through one set of kernel buffers.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    d = geometry.true_ranges(g)
    key = noise_key(master_seed)
    factors = edm.Rank5Factors(g.satellites)
    q, lambdas = np.empty(n_trials), np.empty((n_trials, 5))
    rows = [slice(start, min(start + _BLOCK, n_trials)) for start in range(0, n_trials, _BLOCK)]
    args = [
        (g.satellites, d, nm.sigma_v, nm.bias_b, key, block, sl.stop - sl.start)
        for block, sl in enumerate(rows)
    ]
    if workers <= 1 or len(args) == 1:
        ws = edm.Rank5Workspace(g.m, args[0][-1])
        for a, sl in zip(args, rows):
            _trial_block(*a, factors, out=(q[sl], lambdas[sl]), ws=ws)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only worker pools need it

        blocks = functools.partial(_trial_block, factors=factors)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for sl, block in zip(rows, pool.map(blocks, *zip(*args))):
                q[sl], lambdas[sl] = block
    exceeded = q > threshold if threshold is not None else None
    return TrialBatch(q=q, lambdas=lambdas, exceeded=exceeded)


def _ks_statistic(sample: np.ndarray, mu: float, sigma: float) -> float:
    """One-sample KS distance between the sample and N(mu, sigma^2).

    Phi(z) = erfc(-z / sqrt(2)) / 2 is evaluated per value with math.erfc.
    The sorted copy is walked one _BLOCK at a time and only the two running
    maxima carry over, so the object array of Python floats that math.erfc
    fills is _BLOCK long, not n long; a maximum does not depend on the
    order of its operands, and np.maximum propagates NaN as .max() does.
    """
    x = np.sort(sample)
    n = x.shape[0]
    above = below = -np.inf
    for start in range(0, n, _BLOCK):
        xb = x[start : start + _BLOCK]
        F = 0.5 * _ERFC(-((xb - mu) / sigma) / _SQRT2).astype(float)
        i = np.arange(start + 1, start + 1 + xb.size)
        above = np.maximum(above, (i / n - F).max())
        below = np.maximum(below, (F - (i - 1) / n).max())
    return float(max(above, below))


def ks_critical_value(alpha: float, n: int) -> float:
    """Critical KS distance at level ``alpha`` for sample size ``n``."""
    return KS_COEFF[alpha] / (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n))


def _fd_bin_count(x: np.ndarray) -> int:
    """The bin count of ``np.histogram_bin_edges(x, bins="fd")``, for finite x, len(x) >= 2.

    The Freedman-Diaconis width is 2 IQR n^(-1/3). numpy takes the quartiles
    from np.percentile, which goes through np.unique, whose first call
    imports numpy.ma: about 10 ms of every simulate process. Here one
    np.partition gives the same order statistics and numpy's "linear"
    interpolation (a + (b - a) g, or b - (b - a)(1 - g) once g >= 1/2) the
    same quartiles, so the count, and with it every edge, is numpy's.
    """
    n = x.size
    virtual = (n - 1) * np.array([0.75, 0.25])
    lo = np.floor(virtual).astype(np.intp)
    gamma = virtual - lo
    part = np.partition(x, np.concatenate([lo, lo + 1]))
    a, b = part[lo], part[lo + 1]
    diff = b - a
    quartiles = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    width = 2.0 * (quartiles[0] - quartiles[1]) * n ** (-1.0 / 3.0)
    if not width:
        return 1
    first, last = x.min(), x.max()
    if first == last:
        first, last = first - 0.5, last + 0.5
    return int(np.ceil((last - first) / width))


def _column_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x.mean(axis=0)`` and ``x.var(axis=0, ddof=1)`` of an (n, k) x, bit for bit.

    For a C-ordered (n, k) array with k > 1, numpy reduces axis 0 row after
    row from 0.0: ((0 + x[0]) + x[1]) + x[2] ..., with no pairwise blocking,
    and the variance is that sum over (x - mean)**2 divided by n - 1. Here
    each chunk of _BLOCK rows goes below the running sum and np.add.accumulate
    adds them in that same order, so every rounding is numpy's while the
    only temporaries are _BLOCK rows long; numpy's variance makes an (n, k)
    one. Any layout of x is summed this way, so the bits match numpy's own
    only where numpy also goes row after row, as it does for C order.
    """
    n, k = x.shape
    rows = np.empty((min(n, _BLOCK) + 1, k))
    acc = np.empty_like(rows)

    def row_sum(shift=None):
        rows[0] = 0.0
        for start in range(0, n, _BLOCK):
            chunk = x[start : start + _BLOCK]
            top = chunk.shape[0] + 1
            if shift is None:
                rows[1:top] = chunk
            else:
                np.subtract(chunk, shift, out=rows[1:top])
                np.multiply(rows[1:top], rows[1:top], out=rows[1:top])
            np.add.accumulate(rows[:top], axis=0, out=acc[:top])
            rows[0] = acc[top - 1]
        return rows[0].copy()

    mean = row_sum() / n
    return mean, row_sum(mean) / (n - 1)


def _correlation(lams: np.ndarray) -> np.ndarray:
    """The (4, 4) correlation of the _CORRELATION_LABELS columns of ``lams``.

    A column with zero sample variance gets the identity's row and column.
    The other entries are np.corrcoef(cols[:, ok], rowvar=False) bit for
    bit, computed in one C-ordered (4, n) buffer instead of four (n, 4)
    copies (the stack, the selection, np.cov's own copy and its conj()).
    The layout is the point: cols[:, ok] is F-ordered, so np.cov works on
    a C-ordered (k, n) array. Its row means are pairwise sums along
    contiguous rows, where an (n, k) layout would sum row after row, and
    the bits of np.dot depend on the layout of its operands: np.corrcoef of
    the C-ordered (n, 4) stack differs in the last bits. The buffer then
    takes np.cov's and np.corrcoef's steps in place: row means,
    subtraction, X X^T times 1/(n - 1), division by the square root of the
    diagonal on each side, and clipping to [-1, 1].
    """
    n = lams.shape[0]
    X = np.empty((4, n))
    X[0], X[1], X[2] = lams[:, 0], lams[:, 3], lams[:, 4]
    np.add(lams[:, 3], lams[:, 4], out=X[3])
    # The columns' variance, as numpy's std(axis=0) of the (n, 4) stack.
    ok = _column_moments(X.T)[1] > 0
    corr = np.eye(4)
    k = int(np.count_nonzero(ok))
    if not k:
        return corr
    for row, col in enumerate(np.flatnonzero(ok)):
        X[row] = X[col]
    X = X[:k]
    X -= X.mean(axis=1)[:, None]
    c = np.dot(X, X.T)
    c *= np.true_divide(1, n - 1)
    if k == 1:
        c = c / c  # np.corrcoef's scalar case: nan for a nan, inf or zero variance
    else:
        sd = np.sqrt(np.diag(c))
        c /= sd[:, None]
        c /= sd[None, :]
        np.clip(c, -1, 1, out=c)
    corr[np.ix_(ok, ok)] = c
    return corr


def summarize(
    batch: TrialBatch,
    dist: StatisticDistribution,
    threshold: float | None = None,
) -> SimulationSummary:
    """Reduce a trial batch to empirical statistics and fit diagnostics.

    The histogram uses Freedman-Diaconis binning; the KS statistic compares
    the q sample with N(mu_q, sigma_q^2). The false-alarm rate counts
    q > ``threshold`` when supplied, else the batch's stored flags.

    Beyond the batch, summarize holds at most one (4, n) float buffer, for
    the correlation, plus scratch of _BLOCK rows; the n-long copies of q
    that its moments, KS distance and bins take come one at a time, before
    it. Every value is still the bits of numpy's one-shot expressions: the
    eigenvalue moments add rows in numpy's axis-0 order (_column_moments),
    and the correlation keeps np.corrcoef's memory layout, on which np.dot's
    bits depend (_correlation).
    """
    n = len(batch)
    if n < 2:
        raise ValueError("need at least 2 trials to summarize")
    qs = batch.q

    q_mean = float(qs.mean())
    q_std = float(qs.std(ddof=1))
    degenerate = q_std == 0.0 or dist.sigma_q == 0.0
    if degenerate:
        ks = 1.0
    else:
        ks = _ks_statistic(qs, dist.mu_q, dist.sigma_q)

    edges = np.histogram_bin_edges(qs, bins=_fd_bin_count(qs))
    counts, _ = np.histogram(qs, bins=edges)

    if threshold is not None:
        rate = float(np.mean(qs > threshold))
    elif batch.exceeded is not None:
        rate = float(np.mean(batch.exceeded))
    else:
        rate = None

    lambda_mean, lambda_var = _column_moments(batch.lambdas)

    return SimulationSummary(
        n_trials=n,
        q_mean=q_mean,
        q_std=q_std,
        lambda_mean=lambda_mean,
        lambda_var=lambda_var,
        hist_edges=edges,
        hist_counts=counts,
        ks_statistic=ks,
        ks_critical_5pct=ks_critical_value(0.05, n),
        ks_critical_1pct=ks_critical_value(0.01, n),
        false_alarm_rate=rate,
        correlation=_correlation(batch.lambdas),
        degenerate=degenerate,
        predicted=dist,
    )


def inject_fault(
    sample: geometry.PseudorangeSample, sat_index: int, fault_bias: float
) -> geometry.PseudorangeSample:
    """Return a copy of the sample with ``fault_bias`` added to one channel.

    ``sat_index`` is 0-based. The copy is tagged with the fault so
    consistency checks know channel ``sat_index`` no longer satisfies the
    nominal measurement model.
    """
    if not 0 <= sat_index < sample.m:
        raise IndexError(f"sat_index {sat_index} outside 0..{sample.m - 1}")
    rho = sample.rho.copy()
    rho[sat_index] += fault_bias
    return replace(sample, rho=rho, fault_index=sat_index, fault_bias=fault_bias)


# ---------------------------------------------------------------------------
# Finite-difference audit
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Serialization (deterministic; provenance goes in comment headers)
# ---------------------------------------------------------------------------

def _provenance_lines(provenance: Mapping[str, object] | None) -> list[str]:
    if not provenance:
        return []
    return [f"# {key}={provenance[key]}" for key in sorted(provenance)]


def _write_csv(
    path: str | Path,
    provenance: Mapping[str, object] | None,
    header: str,
    rows: Iterable[bytes],
) -> None:
    """Comment lines end in \n; the header and rows in \r\n, the csv module's default."""
    with Path(path).open("wb") as fh:
        for line in _provenance_lines(provenance):
            fh.write(line.encode() + b"\n")
        fh.write(header.encode() + b"\r\n")
        fh.writelines(rows)


def write_trials_csv(
    batch: TrialBatch,
    path: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Columns: trial, q, lambda1..lambda5, exceeded (empty if no threshold).

    Floats are formatted exactly as ``repr`` formats them, so every value
    round-trips. Each block of trials is laid out as the rows of one uint8
    matrix, allocated once per file with its validity mask: the trial cell,
    then "," and a float cell per value, then ",flag\r\n". The formatters
    write straight into the cell columns (see _floatfmt), the masked bytes
    are the block's lines, and memory stays flat in the run length.
    """
    # Only this writer needs the formatter; importing it here keeps its
    # compile and import out of the commands that write no trials.csv.
    from . import _floatfmt

    n_rows = len(batch)
    n_float = 1 + batch.lambdas.shape[1]
    rows = min(_BLOCK, n_rows)
    U, F = _floatfmt.UINT_WIDTH, 1 + _floatfmt.FLOAT_WIDTH
    M = np.empty((rows, U + n_float * F + 4), np.uint8)
    K = np.ones(M.shape, bool)
    fields, fields_valid = (A[:, U : U + n_float * F].reshape(rows, n_float, F) for A in (M, K))
    fields[:, :, 0] = ord(",")
    M[:, -4:] = np.frombuffer(b",0\r\n", np.uint8)
    K[:, -3] = batch.exceeded is not None

    def blocks():
        for start in range(0, n_rows, _BLOCK):
            sl = slice(start, min(start + _BLOCK, n_rows))
            n = sl.stop - sl.start
            _floatfmt.uint_cells(np.arange(sl.start, sl.stop), out=(M[:n, :U], K[:n, :U]))
            _floatfmt.repr_cells(
                np.column_stack([batch.q[sl], batch.lambdas[sl]]),
                out=(fields[:n, :, 1:], fields_valid[:n, :, 1:]),
            )
            if batch.exceeded is not None:
                M[:n, -3] = ord("0") + batch.exceeded[sl]
            # The bytes of M[K], in a third of the time.
            yield np.compress(K[:n].ravel(), M[:n].ravel()).tobytes()

    _write_csv(
        path, provenance, "trial,q,lambda1,lambda2,lambda3,lambda4,lambda5,exceeded", blocks()
    )


def write_summary_json(
    summary: SimulationSummary,
    path: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    doc = summary.to_json_dict()
    if provenance:
        doc["config"] = {k: provenance[k] for k in sorted(provenance)}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_histogram_csv(
    summary: SimulationSummary,
    path: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Columns: bin_left, bin_right, count, predicted_density.

    ``predicted_density`` samples the predicted Gaussian pdf at each bin
    midpoint, which is the overlay-curve content of the histogram figure.
    """
    dist = summary.predicted
    edges = summary.hist_edges
    mids = 0.5 * (edges[:-1] + edges[1:])
    if dist.sigma_q > 0:
        # scipy.stats.norm.pdf's operation order, on which the output bytes depend.
        y = (mids - dist.mu_q) / dist.sigma_q
        density = np.exp(-y**2 / 2.0) / np.sqrt(2 * np.pi) / dist.sigma_q
    else:
        density = np.zeros_like(mids)
    cols = (edges[:-1].tolist(), edges[1:].tolist(), summary.hist_counts.tolist(), density.tolist())
    _write_csv(
        path, provenance, "bin_left,bin_right,count,predicted_density",
        (("%r,%r,%d,%r\r\n" % row).encode() for row in zip(*cols)),
    )
