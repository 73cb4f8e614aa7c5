"""edmdetect benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

With ``--trace 0`` each repetition of the workload runs as fresh
``edmdetect`` CLI processes (through probe.py, which stamps the end of
set-up) until ``--seconds`` are used, every repetition's outputs are
checked, and the end-to-end metrics are medians over repetitions. The
gated times are CPU times, which leave out the time the host takes the
CPU away; wall times are printed beside them (see README.md). With
``--trace 1`` the per-layer sweep of layers.py runs in this process.
``--tiny`` shrinks every trial count, for the self-test.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Machine facts, per-repetition samples and failures go to
``.perfbench_work/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from statistics import median

# One BLAS thread for this process and the CLI processes it starts. The
# program's matrices are small, so a second OpenBLAS thread only spins, and
# its spinning would count in the CPU times this benchmark gates.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, cli_args  # noqa: E402

# Repetitions per run: at least 3, so setup_s is a median of several
# set-ups and two repetitions with one seed can be compared byte for byte.
MIN_REPS = 3
# Every run ends within 180 s: no repetition starts, and every process is
# killed, once this many seconds have passed since the run started.
DEADLINE_S = 150.0

UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s", "setup_wall_s": "s",
         "work_s": "s", "trials_per_s": "1/s"}
# The end-to-end metrics of the JSON result; the others are printed only.
# Wall times are not gated: on a shared virtual machine the hypervisor
# preempts the CPUs, and that stolen time made the run medians of wall_s
# spread by up to 0.30 of their median. CPU time leaves it out.
# trials_per_s does not exist on predict-audit-m12.
GATED = ("cpu_s", "setup_s", "peak_rss_mb")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stamp: Path, log: Path, deadline: float) -> dict:
    """Run probe.py with argv; returns exit code, wall and CPU time, the
    set-up's wall and CPU time, and peak RSS."""
    with log.open("wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(stamp)] + argv,
            cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(max(deadline - t0, 0.0), os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = setup_wall = None
    if stamp.is_file():
        mono, cpu = map(float, stamp.read_text().split())
        setup, setup_wall = cpu, mono - t0
    # ru_maxrss is in KiB on Linux.
    return {"code": proc.returncode, "wall": t1 - t0, "cpu": usage.ru_utime + usage.ru_stime,
            "setup": setup, "setup_wall": setup_wall, "rss_mb": usage.ru_maxrss * 1024 / 1e6}


def run_rep(spec: dict, trials: int, seed: int, rep_dir: Path, deadline: float) -> dict:
    """One repetition: every command of the workload, then its output checks."""
    rep_dir.mkdir(parents=True)
    rep = {"wall": 0.0, "cpu": 0.0, "setup": 0.0, "setup_wall": 0.0, "rss_mb": 0.0,
           "fails": [], "hashes": {}}
    for cmd in spec["commands"]:
        name = cmd[0]
        out = rep_dir / name
        argv = cli_args(cmd, trials, seed) + ["--out", str(out.relative_to(ROOT))]
        res = spawn(argv, rep_dir / f"{name}.stamp", rep_dir / f"{name}.log", deadline)
        rep["wall"] += res["wall"]
        rep["cpu"] += res["cpu"]
        rep["rss_mb"] = max(rep["rss_mb"], res["rss_mb"])
        if res["code"] != 0:
            rep["fails"].append(f"{name} exited {res['code']}; see {rep_dir / (name + '.log')}")
            continue
        if res["setup"] is None:
            rep["fails"].append(f"{name} wrote no set-up stamp")
        else:
            rep["setup"] += res["setup"]
            rep["setup_wall"] += res["setup_wall"]
        rep["fails"] += checks.check_outputs(out, name, trials)
        rep["hashes"].update(
            {f"{name}/{k}": v for k, v in checks.output_hashes(out, name).items()}
        )
    return rep


def e2e_run(workload: str, seed: int, seconds: float, tiny: bool, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    spec = WORKLOADS[workload]
    trials = spec["tiny_trials"] if tiny else spec["trials"]
    warm = subprocess.run(
        [sys.executable, "-c", "import edmdetect.cli"], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=DEADLINE_S,
    )
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import edmdetect.cli: {warm.stderr.strip()}")
    reps = []
    t_start = time.monotonic()
    while True:
        t_rep = time.monotonic()
        rep_dir = work / f"rep{len(reps)}"
        rep = run_rep(spec, trials, seed, rep_dir, deadline)
        if reps and rep["hashes"] != reps[0]["hashes"]:
            rep["fails"].append("outputs differ from repetition 0 with the same seed")
        if not rep["fails"]:
            shutil.rmtree(rep_dir)
        reps.append(rep)
        elapsed = time.monotonic() - t_start
        if len(reps) >= MIN_REPS and elapsed + (time.monotonic() - t_rep) > seconds:
            break
        if time.monotonic() > deadline:
            reps[-1]["fails"].append(f"run passed its {DEADLINE_S} s deadline")
            break
    samples = {
        "cpu_s": [r["cpu"] for r in reps],
        "setup_s": [r["setup"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in reps],
        "wall_s": [r["wall"] for r in reps],
        "setup_wall_s": [r["setup_wall"] for r in reps],
        "work_s": [r["cpu"] - r["setup"] for r in reps],
    }
    if trials:
        samples["trials_per_s"] = [trials / (r["cpu"] - r["setup"]) for r in reps]
    failed = sum(1 for r in reps if r["fails"])
    return {
        "metrics": {k: {"value": median(samples[k]), "unit": UNITS[k]} for k in GATED},
        "samples": samples,
        "attempted": len(reps),
        "failures": [f for r in reps for f in r["fails"]],
        "failed": failed,
        "notes": {"trials": trials, "fail_frac": failed / len(reps)},
    }


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it at n={n}"
    k = n - 10
    return f"p{100.0 * k / n:.0f}={sorted(values)[k - 1]:.6g} (n={n})"


def blas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def python_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, a probe of the host's speed
    at the end of the run: shared hosts drift by tens of percent."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def cpu_ticks() -> tuple[int, int] | None:
    """(stolen, all) CPU ticks of the whole machine so far, from /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def machine_facts(ticks0: tuple[int, int] | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "python_loop_ms": python_loop_ms(),
    }
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # The share of the machine's CPU time the hypervisor took away during
        # the run: it lengthens wall times but not CPU times.
        facts["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    for pkg in ("numpy", "scipy", "mpmath"):
        facts[pkg] = metadata.version(pkg)
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        got = subprocess.run(["getconf", level], capture_output=True, text=True)
        facts[level.lower()] = got.stdout.strip() if got.returncode == 0 else "unknown"
    facts["src_lines"] = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny trial counts, for the self-test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "edmdetect" / "cli.py").is_file():
        print(f"error: no edmdetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    ticks0 = cpu_ticks()
    # Last resort for a traced run that hangs in-process: SIGALRM's default
    # action ends this process before the 180 s limit.
    signal.alarm(175)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        import layers

        result = layers.traced_run(ROOT, child_env(), args.workload, args.seed, args.seconds,
                                   args.tiny, work)
    else:
        result = e2e_run(args.workload, args.seed, args.seconds, args.tiny, work)
    result["facts"] = machine_facts(ticks0)

    if args.trace:
        for name, m in sorted(result["metrics"].items()):
            print(f"{args.workload} {name}: {m['value']:.6g} {m['unit']}")
    else:
        for name, vals in result["samples"].items():
            print(f"{args.workload} {name}: {median(vals):.6g} {UNITS[name]} median; {tail(vals)}")
    print(f"{args.workload} fail_frac: {result['failed']}/{result['attempted']} "
          f"= {result['failed'] / result['attempted']:.3g}")
    for fail in result["failures"]:
        print(f"FAIL {fail}")
    print("facts: " + json.dumps(result["facts"], sort_keys=True))
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    finite = all(math.isfinite(m["value"]) for m in result["metrics"].values())
    print(json.dumps({
        "correct": result["failed"] == 0 and finite,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
