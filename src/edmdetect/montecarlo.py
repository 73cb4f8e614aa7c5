"""Monte Carlo validation harness for the analytic q-distribution prediction.

Repeats noisy trials at a fixed geometry, collects the statistic and the
leading eigenvalues as columns of a TrialBatch, and compares the empirical
distribution with the first-order prediction. Trials run in fixed blocks of
1024; block b draws the noise of all its trials in one call from a Philox
counter-based stream keyed on the master seed with counter b (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). Trial t's noise thus
depends only on (master_seed, t): results are bit-identical for any worker
count, and a short run is a bit-exact prefix of a longer one.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy.special import ndtr

from . import edm, geometry
from .errors import SpectrumError
from .perturbation import StatisticDistribution, eigenvalue_sensitivities, gram_sensitivities

# Trials are processed in fixed-size blocks so that batching (and the split
# across workers) never depends on the worker count.
_BLOCK = 1024

# One-sample Kolmogorov-Smirnov critical values D = c(alpha) / (sqrt(n) +
# 0.12 + 0.11/sqrt(n)) (Stephens' finite-n form of the asymptotic table).
KS_COEFF = {0.05: 1.358, 0.01: 1.628}

# Admissible central-difference steps h of the finite-difference audit.
FD_STEP_RANGE_M = (1e-6, 1.0)

_CORRELATION_LABELS = ("lambda1", "lambda4", "lambda5", "lambda4+lambda5")


@dataclass(frozen=True)
class TrialBatch:
    """Columnar results of k noisy trials; row t belongs to trial t.

    ``q_alt`` is the statistic recomputed under the other eigenvalue
    ordering; it is a diagnostic and not part of the CSV contract.
    """

    q: np.ndarray  # (k,)
    lambdas: np.ndarray  # (k, 5) leading eigenvalues per configured ordering
    exceeded: np.ndarray | None  # (k,) bool, or None when no threshold was given
    q_alt: np.ndarray  # (k,)

    def __len__(self) -> int:
        return self.q.shape[0]


@dataclass
class SimulationSummary:
    """Empirical statistics of a trial batch plus the comparison verdict data."""

    n_trials: int
    ordering: str
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
    alt_ordering: str
    q_alt_mean: float
    q_alt_std: float

    def to_json_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "ordering": self.ordering,
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
            "q_alt": {
                "ordering": self.alt_ordering,
                "mean": self.q_alt_mean,
                "std": self.q_alt_std,
            },
        }


def _other_ordering(ordering: str) -> str:
    return (
        edm.ORDERING_ALGEBRAIC
        if ordering == edm.ORDERING_MAGNITUDE
        else edm.ORDERING_MAGNITUDE
    )


def _exceeds(q: np.ndarray, threshold) -> np.ndarray:
    """Exceedance mask; scalar = one-sided upper, pair = outside the band."""
    if np.isscalar(threshold):
        return q > threshold
    lo, hi = threshold
    return (q < lo) | (q > hi)


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
    b_eff: float,
    key: np.ndarray,
    block: int,
    k: int,
    ordering: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the first k trials of a block: returns (q, first-5 eigenvalues, q_alt)."""
    # edm.centered_gram's steps, spelled out to keep both stacks allocated until
    # the block returns: freed earlier, glibc trims and refaults ~4 MB of heap
    # per block, 0.25 s more system time per 100k trials at m = 12.
    D = edm.edm_from_gram(edm.gram_from_positions(satellites.T))
    D_c = edm.augment_edm(D, d + b_eff + block_noise(key, block, k, d.shape[0], sigma_v))
    G_c = edm.gram_centered(D_c)
    w = np.linalg.eigvalsh(G_c)
    w_main, w_alt = (
        np.take_along_axis(w, edm._order_indices(w, order), axis=-1)
        for order in (ordering, _other_ordering(ordering))
    )
    lam1 = w_main[:, 0]
    bad = np.flatnonzero(lam1 == 0.0)
    if bad.size:
        raise SpectrumError(
            f"trial {block * _BLOCK + int(bad[0])}: leading eigenvalue is zero (degenerate geometry)"
        )
    q = (w_main[:, 3] + w_main[:, 4]) / (2.0 * lam1)
    q_alt = (w_alt[:, 3] + w_alt[:, 4]) / (2.0 * w_alt[:, 0])
    return q, w_main[:, :5], q_alt


def run_trials(
    g: geometry.ScenarioGeometry,
    nm: geometry.NoiseModel,
    n_trials: int,
    master_seed: int,
    ordering: str = edm.DEFAULT_ORDERING,
    threshold=None,
    workers: int = 1,
) -> TrialBatch:
    """Run ``n_trials`` independent noisy trials at a fixed geometry.

    ``threshold`` may be a scalar (one-sided upper) or a (lo, hi) pair; when
    given, the batch carries an exceedance flag per trial. ``workers`` > 1
    fans the fixed-size trial blocks out to a process pool; outputs are
    identical for any worker count.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if master_seed < 0:
        raise ValueError("master_seed must be non-negative")
    if ordering not in edm.ORDERINGS:
        raise ValueError(f"ordering must be one of {edm.ORDERINGS}, got {ordering!r}")
    d = geometry.true_ranges(g)
    key = noise_key(master_seed)
    args = [
        (g.satellites, d, nm.sigma_v, nm.effective_bias, key, start // _BLOCK,
         min(_BLOCK, n_trials - start), ordering)
        for start in range(0, n_trials, _BLOCK)
    ]
    if workers <= 1 or len(args) == 1:
        blocks = [_trial_block(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_trial_block, *zip(*args)))
    q, lambdas, q_alt = (np.concatenate(cols) for cols in zip(*blocks))
    exceeded = _exceeds(q, threshold) if threshold is not None else None
    return TrialBatch(q=q, lambdas=lambdas, exceeded=exceeded, q_alt=q_alt)


def _ks_statistic(sample: np.ndarray, mu: float, sigma: float) -> float:
    """One-sample KS distance between the sample and N(mu, sigma^2)."""
    x = np.sort(sample)
    n = x.shape[0]
    F = ndtr((x - mu) / sigma)
    i = np.arange(1, n + 1)
    return float(max((i / n - F).max(), (F - (i - 1) / n).max()))


def ks_critical_value(alpha: float, n: int) -> float:
    """Critical KS distance at level ``alpha`` for sample size ``n``."""
    return KS_COEFF[alpha] / (np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n))


def summarize(
    batch: TrialBatch,
    dist: StatisticDistribution,
    threshold=None,
) -> SimulationSummary:
    """Reduce a trial batch to empirical statistics and fit diagnostics.

    The histogram uses Freedman-Diaconis binning; the KS statistic compares
    the q sample with N(mu_q, sigma_q^2). The false-alarm rate comes from
    ``threshold`` when supplied, else from the batch's stored flags.
    """
    n = len(batch)
    if n < 2:
        raise ValueError("need at least 2 trials to summarize")
    qs = batch.q
    lams = batch.lambdas

    q_mean = float(qs.mean())
    q_std = float(qs.std(ddof=1))
    degenerate = q_std == 0.0 or dist.sigma_q == 0.0
    if degenerate:
        ks = 1.0
    else:
        ks = _ks_statistic(qs, dist.mu_q, dist.sigma_q)

    edges = np.histogram_bin_edges(qs, bins="fd")
    counts, _ = np.histogram(qs, bins=edges)

    if threshold is not None:
        rate = float(np.mean(_exceeds(qs, threshold)))
    elif batch.exceeded is not None:
        rate = float(np.mean(batch.exceeded))
    else:
        rate = None

    cols = np.column_stack([lams[:, 0], lams[:, 3], lams[:, 4], lams[:, 3] + lams[:, 4]])
    sd = cols.std(axis=0, ddof=1)
    corr = np.eye(4)
    ok = sd > 0
    if ok.any():
        sub = np.corrcoef(cols[:, ok], rowvar=False)
        corr[np.ix_(ok, ok)] = np.atleast_2d(sub)

    return SimulationSummary(
        n_trials=n,
        ordering=dist.ordering,
        q_mean=q_mean,
        q_std=q_std,
        lambda_mean=lams.mean(axis=0),
        lambda_var=lams.var(axis=0, ddof=1),
        hist_edges=edges,
        hist_counts=counts,
        ks_statistic=ks,
        ks_critical_5pct=ks_critical_value(0.05, n),
        ks_critical_1pct=ks_critical_value(0.01, n),
        false_alarm_rate=rate,
        correlation=corr,
        degenerate=degenerate,
        predicted=dist,
        alt_ordering=_other_ordering(dist.ordering),
        q_alt_mean=float(batch.q_alt.mean()),
        q_alt_std=float(batch.q_alt.std(ddof=1)),
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


def _mp_eigenvalues(satellites: np.ndarray, rho, ordering: str):
    """Extended-precision spectrum of the centered Gram built from ``rho``.

    The pipeline is rebuilt from scratch in mpmath arithmetic: eigenvalue
    differences of order h * s sit ~9 decades below the matrix norm, far
    inside double-precision eigensolver noise, so the audit's reference side
    needs more precision than float64 carries.
    """
    import mpmath  # only the audit needs it; importing it slows every command

    m = satellites.shape[0]
    n = m + 1
    pts = [[mpmath.mpf(float(c)) for c in row] for row in satellites]
    D = mpmath.zeros(n, n)
    for i in range(m):
        for j in range(i + 1, m):
            dd = sum((pts[i][k] - pts[j][k]) ** 2 for k in range(3))
            D[i + 1, j + 1] = dd
            D[j + 1, i + 1] = dd
    for j in range(m):
        r2 = rho[j] ** 2
        D[0, j + 1] = r2
        D[j + 1, 0] = r2
    J = mpmath.eye(n) - mpmath.ones(n, n) / n
    Gc = -J * D * J / 2
    E = mpmath.eigsy(Gc, eigvals_only=True)
    vals = [E[i] for i in range(n)]
    if ordering == edm.ORDERING_ALGEBRAIC:
        vals.sort(key=lambda x: -x)
    else:
        vals.sort(key=lambda x: -abs(x))
    return vals


def finite_difference_audit(
    g: geometry.ScenarioGeometry,
    nm: geometry.NoiseModel,
    h: float,
    ordering: str = edm.DEFAULT_ORDERING,
    tracked: tuple[int, ...] = (1, 4, 5),
    dps: int = 40,
) -> FiniteDifferenceAudit:
    """Audit the analytic sensitivities with a central-difference oracle.

    For every tracked eigenvalue position i and satellite j the oracle value
    is (lambda_i(v_j = +h) - lambda_i(v_j = -h)) / (2h) with each perturbed
    spectrum recomputed through the full pipeline in ``dps``-digit
    arithmetic (see _mp_eigenvalues). Discrepancies are relative with an
    absolute floor of 1 m^2/m.
    """
    import mpmath

    lo, hi = FD_STEP_RANGE_M
    if not lo <= h <= hi:
        raise ValueError(f"step h must lie in [{lo:g}, {hi:g}] m, got {h}")
    d = geometry.true_ranges(g)
    sample = geometry.nominal_pseudoranges(d, nm)
    spec = edm.spectrum(edm.centered_gram(g.satellites, sample.rho), ordering)
    table = eigenvalue_sensitivities(spec, gram_sensitivities(sample.rho), tuple(tracked))

    m = g.m
    fd = np.empty((len(tracked), m))
    with mpmath.workdps(dps):
        hm = mpmath.mpf(float(h))
        rho_mp = [mpmath.mpf(float(x)) for x in sample.rho]
        for j in range(m):
            plus = list(rho_mp)
            plus[j] += hm
            minus = list(rho_mp)
            minus[j] -= hm
            w_plus = _mp_eigenvalues(g.satellites, plus, ordering)
            w_minus = _mp_eigenvalues(g.satellites, minus, ordering)
            for a, pos in enumerate(tracked):
                fd[a, j] = float((w_plus[pos - 1] - w_minus[pos - 1]) / (2 * hm))
    rel = relative_discrepancy(table.s, fd)
    return FiniteDifferenceAudit(
        h=h,
        positions=tuple(tracked),
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
    rows: Iterable[str],
) -> None:
    """Comment lines end in \n; the header and rows in \r\n, the csv module's default."""
    with Path(path).open("w", newline="") as fh:
        for line in _provenance_lines(provenance):
            fh.write(line + "\n")
        fh.write(header + "\r\n")
        fh.writelines(rows)


def write_trials_csv(
    batch: TrialBatch,
    path: str | Path,
    provenance: Mapping[str, object] | None = None,
) -> None:
    """Columns: trial, q, lambda1..lambda5, exceeded (empty if no threshold).

    Floats are written with repr, so every value round-trips exactly.
    """
    cols = [range(len(batch)), batch.q.tolist(), *batch.lambdas.T.tolist()]
    if batch.exceeded is None:
        fmt = "%d,%r,%r,%r,%r,%r,%r,\r\n"
    else:
        fmt = "%d,%r,%r,%r,%r,%r,%r,%d\r\n"
        cols.append(batch.exceeded.tolist())
    _write_csv(
        path, provenance, "trial,q,lambda1,lambda2,lambda3,lambda4,lambda5,exceeded",
        (fmt % row for row in zip(*cols)),
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
        ("%r,%r,%d,%r\r\n" % row for row in zip(*cols)),
    )
