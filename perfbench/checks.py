"""Output checks for one workload repetition; each returns failure messages.

The bounds are fixed here, before any change they will judge, and pin no
byte hash of any commit: a change of the trial noise stream keeps them
valid. Determinism is checked by comparing the outputs of repetitions that
share a seed, not against stored bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

# q is recomputed from the written eigenvalues with the same three float
# operations; the tolerance only allows a reassociated formula.
Q_REL_TOL = 1e-12
# An exceedance flag is not judged when q lies this close to the threshold
# (relative), where the quantile function's last bit could decide it.
THRESHOLD_REL_BAND = 1e-12
# The KS statistic may exceed the 1% critical value by this factor, to allow
# for the first-order model error that a large sample resolves.
KS_CRITICAL_FACTOR = 2.0
KS_COEFF_1PCT = 1.628
# The false-alarm rate may deviate from p_fa by this many binomial standard
# errors plus an absolute model-error allowance.
FA_SIGMAS = 5.0
FA_ABS_ALLOWANCE = 0.002
FD_TOL = 1e-4

OUTPUTS = {
    "simulate": ("trials.csv", "summary.json", "histogram.csv"),
    "predict": ("prediction.json",),
    "audit": ("audit.json",),
}


def output_hashes(out_dir: Path, command: str) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUTS[command]
        if (out_dir / name).is_file()
    }


def check_outputs(out_dir: Path, command: str, trials: int) -> list[str]:
    missing = [n for n in OUTPUTS[command] if not (out_dir / n).is_file()]
    if missing:
        return [f"{command}: missing outputs {missing}"]
    try:
        return {"simulate": _check_simulate, "predict": _check_predict, "audit": _check_audit}[
            command
        ](out_dir, trials)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]


def _check_simulate(out_dir: Path, trials: int) -> list[str]:
    fails = []
    csv_path = out_dir / "trials.csv"
    with csv_path.open() as fh:
        n_comments = 0
        for line in fh:
            if not line.startswith("#"):
                header = line.strip()
                break
            n_comments += 1
    expected = "trial,q,lambda1,lambda2,lambda3,lambda4,lambda5,exceeded"
    if header != expected:
        return [f"trials.csv header {header!r} != {expected!r}"]
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=n_comments + 1, ndmin=2)
    if rows.shape != (trials, 8):
        return [f"trials.csv holds {rows.shape[0]} rows of {rows.shape[1]}, expected {trials} of 8"]
    if not np.array_equal(rows[:, 0], np.arange(trials)):
        fails.append("trials.csv trial indices are not 0..n-1 in order")
    q, lam1, lam4, lam5, exceeded = rows[:, 1], rows[:, 2], rows[:, 5], rows[:, 6], rows[:, 7]
    ratio = (lam4 + lam5) / (2.0 * lam1)
    bad = np.abs(q - ratio) > Q_REL_TOL * np.abs(ratio)
    if bad.any():
        fails.append(f"{int(bad.sum())} rows break q == (l4+l5)/(2 l1), first at trial {int(np.argmax(bad))}")

    summary = json.loads((out_dir / "summary.json").read_text())
    p_fa = float(summary["config"]["p_fa"])
    mu, sigma = float(summary["predicted"]["mu_q"]), float(summary["predicted"]["sigma_q"])
    if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
        return fails + [f"predicted distribution not usable: mu={mu} sigma={sigma}"]
    threshold = mu + NormalDist().inv_cdf(1.0 - p_fa) * sigma
    decided = np.abs(q - threshold) > THRESHOLD_REL_BAND * abs(threshold)
    wrong = decided & ((q > threshold) != (exceeded == 1.0))
    if wrong.any() or not np.isin(exceeded, (0.0, 1.0)).all():
        fails.append(f"{int(wrong.sum())} exceeded flags disagree with the threshold {threshold!r}")

    n = int(summary["n_trials"])
    if n != trials:
        fails.append(f"summary n_trials {n} != {trials}")
    ks = float(summary["ks"]["statistic"])
    ks_bound = KS_CRITICAL_FACTOR * KS_COEFF_1PCT / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))
    if not ks <= ks_bound:
        fails.append(f"KS statistic {ks} above bound {ks_bound}")
    rate = float(summary["false_alarm_rate"])
    fa_bound = FA_SIGMAS * math.sqrt(p_fa * (1.0 - p_fa) / n) + FA_ABS_ALLOWANCE
    if not abs(rate - p_fa) <= fa_bound:
        fails.append(f"false-alarm rate {rate} outside {p_fa} +/- {fa_bound}")
    if abs(rate - float(exceeded.mean())) > 0.5 / n:
        fails.append(f"false-alarm rate {rate} != mean of exceeded flags {exceeded.mean()}")
    return fails


def _check_predict(out_dir: Path, trials: int) -> list[str]:
    doc = json.loads((out_dir / "prediction.json").read_text())
    mu, sigma = float(doc["mu_q"]), float(doc["sigma_q"])
    if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
        return [f"prediction not usable: mu_q={mu} sigma_q={sigma}"]
    thr = doc["thresholds"]
    expected = mu + NormalDist().inv_cdf(1.0 - float(thr["p_fa"])) * sigma
    if not abs(float(thr["one_sided_hi"]) - expected) <= 1e-9 * abs(expected):
        return [f"one-sided threshold {thr['one_sided_hi']} != mu + z sigma = {expected}"]
    if not float(thr["two_sided_lo"]) < mu < float(thr["two_sided_hi"]):
        return ["two-sided thresholds do not bracket mu_q"]
    return []


def _check_audit(out_dir: Path, trials: int) -> list[str]:
    doc = json.loads((out_dir / "audit.json").read_text())
    fails = [] if doc["passed"] is True else ["audit.json reports passed != true"]
    fd = [c for c in doc["checks"] if c["name"].startswith("finite-difference")]
    if len(fd) != 1 or not float(fd[0]["value"]) <= FD_TOL:
        fails.append(f"finite-difference discrepancy not <= {FD_TOL}: {fd}")
    return fails
