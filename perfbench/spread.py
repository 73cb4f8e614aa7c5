"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1 2 3 ...] [--trace 0]

For every metric it prints the median over the runs, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile distance as a share
of the median, and, for end-to-end metrics, that share against the
metric's bound from BENCHMARK.json. Each run's line also shows the host
speed probe ``python_loop_ms``, the steal share and the median wall time
from its result.json. A run that prints no
result or reports ``correct: false`` is listed and stops the report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if not result or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        saved = ROOT / ".perfbench_work" / f"{args.workload}-seed{seed}-trace{args.trace}" / "result.json"
        kept = json.loads(saved.read_text())
        facts = kept["facts"]
        host = f"python_loop_ms={facts['python_loop_ms']:.4g} steal_share={facts.get('steal_share', float('nan')):.3f}"
        if args.trace == 0:
            host += f" wall_s={median(kept['samples']['wall_s']):.4g}"
        shown = result["metrics"].items() if args.trace == 0 else ()
        print(f"seed {seed}: {host} " + " ".join(f"{k}={m['value']:.4g}" for k, m in shown), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, _, q3 = quantiles(vals, n=4)
        med = median(vals)
        share = (q3 - q1) / abs(med) if med else float("inf")
        line = f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {share:.4f}"
        if name in bounds:
            verdict = "ok" if share < bounds[name] / 3 else "ABOVE bound/3"
            line += f" bound {bounds[name]} ({verdict})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
