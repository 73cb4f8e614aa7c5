"""Fast self-test of the benchmark (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's contract, runs every
workload with ``--tiny`` trial counts, traced and untraced, and asserts
that each run is correct and reports exactly the metrics BENCHMARK.json
names, each finite and with its declared unit. Last, it runs the benchmark
in a directory holding only BENCHMARK.json and perfbench/, where it must
fail without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)), "names"
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(done: subprocess.CompletedProcess, declared: list[dict], what: str) -> None:
    assert done.returncode == 0, f"{what}: exit {done.returncode}\n{done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {done.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(want), f"{what}: missing {set(want) - set(got)}, extra {set(got) - set(want)}"
    for name, m in got.items():
        assert set(m) == {"value", "unit"} and m["unit"] == want[name], f"{what}: {name} {m}"
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), f"{what}: {name} {m}"


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(bench)
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check_result(run(ROOT, w["name"], trace), declared, f"{w['name']} trace={trace}")
            print(f"ok  {w['name']} trace={trace}")

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, bench["workloads"][0]["name"], 0)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    assert done.returncode != 0 and not last[0].startswith("{"), done.stdout
    shutil.rmtree(bare)
    print("ok  fails without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
