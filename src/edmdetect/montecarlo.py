"""Monte Carlo validation harness for the analytic q-distribution prediction.

Repeats noisy trials at a fixed geometry, collects the statistic and the
leading eigenvalues as columns of a TrialBatch, and compares the empirical
distribution with the first-order prediction. Noise comes in blocks of
1024 trials; block b draws the noise of all its trials in one call from a
Philox counter-based stream keyed on the master seed with counter b (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11). Trial t's
noise thus depends only on (master_seed, t), and a short run is a bit-exact
prefix of a longer one. Each trial's spectrum comes from the rank-5
Rayleigh-Ritz kernel of edm.centered_gram_eigvals: O(m) work and a few
Newton steps per trial instead of building and solving the (m+1)x(m+1)
centered Gram matrix. run_trials builds the geometry's factors once
(edm.Rank5Factors), runs four noise blocks at a time through
edm.rank5_eigvals in one reused, feature-major workspace, and fills its
preallocated result columns in place; the values are bit for bit those of
centered_gram_eigvals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import edm, geometry
from .errors import SpectrumError
from .perturbation import StatisticDistribution

# Noise is drawn in fixed-size blocks, so trial t's noise never depends on
# the run length.
_BLOCK = 1024
# Trials per kernel pass: wider passes cost less per trial, but each lane
# holds about 1 KB of workspace at m = 12.
_LANES = 4 * _BLOCK

# One-sample Kolmogorov-Smirnov critical values D = c(alpha) / (sqrt(n) +
# 0.12 + 0.11/sqrt(n)) (Stephens' finite-n form of the asymptotic table).
KS_COEFF = {0.05: 1.358, 0.01: 1.628}

_CORRELATION_LABELS = ("lambda1", "lambda4", "lambda5", "lambda4+lambda5")
_CORRELATION_COLUMNS = [0, 3, 4, 5]  # in [lambda1..lambda5, lambda4 + lambda5]

_SQRT2 = math.sqrt(2.0)

# math.erfc applied elementwise; returns an object array.
_ERFC = np.frompyfunc(math.erfc, 1, 1)
# _ks_statistic's block of sorted values, and its margin for erfc's last bits.
_KS_STRIDE = 32
_KS_SLACK = 1e-12


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
            "q_mean": self.q_mean,
            "q_std": self.q_std,
            "lambda_mean": self.lambda_mean.tolist(),
            "lambda_var": self.lambda_var.tolist(),
            "histogram": {
                "edges": self.hist_edges.tolist(),
                "counts": self.hist_counts.tolist(),
            },
            "ks": {
                "statistic": self.ks_statistic,
                "critical_5pct": self.ks_critical_5pct,
                "critical_1pct": self.ks_critical_1pct,
            },
            "false_alarm_rate": self.false_alarm_rate,
            "correlation": {
                "labels": list(_CORRELATION_LABELS),
                "matrix": self.correlation.tolist(),
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
    noise of trial block * _BLOCK + i whatever k is. Each value is sigma_v
    times a standard normal draw; rng.normal(0, sigma_v) adds 0.0 to the
    same product, which changes no pseudorange's bits.
    """
    rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, block]))
    noise = rng.standard_normal((k, m))
    noise *= sigma_v
    return noise


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
    exceedance flag per trial, q > threshold. The geometry's kernel factors
    are built once; the result columns are then filled _LANES trials at a
    time in place, through one set of kernel buffers, and ranked by
    edm.rank5_by_magnitude, which sorts only the lanes that need it.
    ``workers`` is ignored: every lane runs in this process. It stays only
    until the benchmark's two-worker loop (perfbench/layers.py) is dropped.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    nominal = (geometry.true_ranges(g) + nm.bias_b)[:, None]
    key = noise_key(master_seed)
    factors = edm.Rank5Factors(g.satellites)
    q, lambdas = np.empty(n_trials), np.empty((n_trials, 5))
    ws = edm.Rank5Workspace(g.m, min(_LANES, n_trials))
    for start in range(0, n_trials, _LANES):
        k = min(_LANES, n_trials - start)
        rho = ws.rho[:, :k]
        for b in range(0, k, _BLOCK):
            noise = block_noise(key, (start + b) // _BLOCK, min(_BLOCK, k - b), g.m, nm.sigma_v)
            np.add(nominal, noise.T, out=rho[:, b : b + _BLOCK])
        w = edm.rank5_eigvals(factors, rho, ws)
        lam = edm.rank5_by_magnitude(w, lambdas[start : start + k])
        lam1 = lam[:, 0]
        bad = np.flatnonzero(lam1 == 0.0)
        if bad.size:
            raise SpectrumError(
                f"trial {start + int(bad[0])}: leading eigenvalue is zero (degenerate geometry)"
            )
        np.divide(lam[:, 3] + lam[:, 4], 2.0 * lam1, out=q[start : start + k])
    exceeded = q > threshold if threshold is not None else None
    return TrialBatch(q=q, lambdas=lambdas, exceeded=exceeded)


def _normal_cdf(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Phi((x - mu) / sigma) = erfc(-z / sqrt(2)) / 2, per value with math.erfc."""
    return 0.5 * _ERFC(-((x - mu) / sigma) / _SQRT2).astype(float)


def _ks_statistic(sample: np.ndarray, mu: float, sigma: float) -> float:
    """One-sample KS distance between the sample and N(mu, sigma^2), sigma > 0.

    The larger of the maxima of i/n - F_i and F_i - (i-1)/n over the sorted
    values, F_i = _normal_cdf(x_i), with the bits of a walk over every value.
    F is taken first at each _KS_STRIDE-value block's first value and at the
    last value, where NaNs sort. F is monotone, so a block from i_lo to i_hi
    holds terms of at most i_hi/n - F_lo and F_hi - (i_lo-1)/n, with F_lo and
    F_hi the values at its first value and the next block's, widened by
    _KS_SLACK (libm's erfc is monotone only to its last bits). Blocks whose
    bounds exceed neither maximum cannot raise them; the rest are evaluated
    in full, _BLOCK values at a time: the object arrays of Python floats
    that math.erfc fills are n/_KS_STRIDE + 1 long, then _BLOCK long.
    """
    x = np.sort(sample)
    n = x.shape[0]
    i = np.append(np.arange(0, n, _KS_STRIDE), n - 1)
    F = _normal_cdf(x[i], mu, sigma)
    above, below = ((i + 1) / n - F).max(), (F - i / n).max()
    # Block j runs from value i[j] to i[j + 1], so its F from F[j] to F[j + 1].
    live = (i[1:] + 1) / n - F[:-1] + _KS_SLACK > above
    live |= F[1:] + _KS_SLACK - i[:-1] / n > below
    rest = np.flatnonzero(np.repeat(live, _KS_STRIDE)[:n])
    for start in range(0, rest.size, _BLOCK):
        i = rest[start : start + _BLOCK]
        F = _normal_cdf(x[i], mu, sigma)
        above = np.maximum(above, ((i + 1) / n - F).max())
        below = np.maximum(below, (F - i / n).max())
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


def _eigen_moments(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda_mean, lambda_var and the (4, 4) correlation over _CORRELATION_LABELS.

    Two passes of _BLOCK rows over d = [lambda1..lambda5, lambda4 + lambda5]
    (each row's rounded sum) minus the first row: the mean of d, then the
    corrected two-pass sums of e = d - mean(d), sum(e e^T) - sum(e) sum(e)^T / n
    (Chan, Golub & LeVeque, Am. Stat. 37, 1983), in one reused buffer; the
    chunk stays _BLOCK rows, as summary.json's bits depend on it. lambda1's
    trials agree to about 3e-10 of its value, so its d are exact (Sterbenz).
    np.einsum calls no BLAS routine. A constant column has zero variance and
    the identity's row and column; the diagonal is exactly 1.
    """
    n = lams.shape[0]
    shift = np.append(lams[0], lams[0, 3] + lams[0, 4])
    buf = np.empty((min(_BLOCK, n), 6))

    def deviations():
        for start in range(0, n, _BLOCK):
            chunk = lams[start : start + _BLOCK]
            d = buf[: len(chunk)]
            np.add(chunk[:, 3], chunk[:, 4], out=d[:, 5])
            d[:, :5] = chunk
            d -= shift
            yield d

    mean = sum(d.sum(axis=0) for d in deviations()) / n
    cross, resid = np.zeros((6, 6)), np.zeros(6)
    for e in deviations():
        e -= mean
        cross += np.einsum("ki,kj->ij", e, e)
        resid += e.sum(axis=0)
    cov = (cross - np.outer(resid, resid) / n) / (n - 1)
    c = cov[np.ix_(_CORRELATION_COLUMNS, _CORRELATION_COLUMNS)]
    sd = np.sqrt(np.diag(c))
    corr = np.eye(4)
    np.divide(c, np.outer(sd, sd), out=corr, where=np.outer(sd > 0, sd > 0))
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return shift[:5] + (mean + resid / n)[:5], cov.diagonal()[:5].copy(), corr


def summarize(
    batch: TrialBatch,
    dist: StatisticDistribution,
    threshold: float | None = None,
) -> SimulationSummary:
    """Reduce a trial batch to empirical statistics and fit diagnostics.

    The histogram uses Freedman-Diaconis binning; the KS statistic compares
    the q sample with N(mu_q, sigma_q^2). The false-alarm rate counts
    q > ``threshold`` when supplied, else the batch's stored flags.

    Beyond the batch, summarize holds one n-long copy of q at a time (for
    its moments, KS distance and bins), the KS walk's one byte per trial and
    n/_KS_STRIDE block bounds, and scratch of _BLOCK rows. The q
    fields, histogram, KS values and rate are numpy's one-shot bits; the
    eigenvalue moments and correlation (_eigen_moments) are within a few
    ulps of exact sums, where numpy's one-shot lambda1 variance is off by
    about 1e-10 at 100k trials.
    """
    n = len(batch)
    if n < 2:
        raise ValueError("need at least 2 trials to summarize")
    qs = batch.q

    q_mean = float(qs.mean())
    q_std = float(qs.std(ddof=1))
    degenerate = q_std == 0.0 or dist.sigma_q == 0.0
    ks = 1.0 if degenerate else _ks_statistic(qs, dist.mu_q, dist.sigma_q)

    edges = np.histogram_bin_edges(qs, bins=_fd_bin_count(qs))
    counts, _ = np.histogram(qs, bins=edges)

    if threshold is not None:
        rate = float(np.mean(qs > threshold))
    elif batch.exceeded is not None:
        rate = float(np.mean(batch.exceeded))
    else:
        rate = None

    lambda_mean, lambda_var, correlation = _eigen_moments(batch.lambdas)

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
        correlation=correlation,
        degenerate=degenerate,
        predicted=dist,
    )


def __getattr__(name: str):
    # perfbench/probe.py looks the audit up here by name to stamp the end of
    # set-up; serve that one name from audit.py, which loads on first use.
    if name == "finite_difference_audit":
        from . import audit

        return audit.finite_difference_audit
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    a float cell per value (each "," and the value's repr, one run of the
    cell), then ",flag\r\n". The formatters write straight into the cell
    columns (see _floatfmt), the masked bytes are the block's lines, and
    memory stays flat in the run length.
    """
    # Only this writer needs the formatter; importing it here keeps its
    # compile and import out of the commands that write no trials.csv.
    from . import _floatfmt

    n_rows = len(batch)
    n_float = 1 + batch.lambdas.shape[1]
    rows = min(_BLOCK, n_rows)
    # The trial cell is as wide as the last trial number.
    U, F = len(str(max(n_rows - 1, 0))), _floatfmt.FLOAT_WIDTH
    M = np.empty((rows, U + n_float * F + 4), np.uint8)
    K = np.ones(M.shape, bool)
    fields, fields_valid = (A[:, U : U + n_float * F].reshape(rows, n_float, F) for A in (M, K))
    M[:, -4:] = np.frombuffer(b",0\r\n", np.uint8)
    K[:, -3] = batch.exceeded is not None

    def blocks():
        for start in range(0, n_rows, _BLOCK):
            sl = slice(start, min(start + _BLOCK, n_rows))
            n = sl.stop - sl.start
            _floatfmt.uint_cells(np.arange(sl.start, sl.stop), out=(M[:n, :U], K[:n, :U]))
            _floatfmt.repr_cells(
                np.column_stack([batch.q[sl], batch.lambdas[sl]]),
                out=(fields[:n], fields_valid[:n]),
                sep=b",",
            )
            if batch.exceeded is not None:
                M[:n, -3] = ord("0") + batch.exceeded[sl]
            # Boolean indexing copies the mask's runs, about 8 a row.
            yield M[:n][K[:n]]

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
        doc["config"] = dict(provenance)
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
