"""The traced run: per-layer metrics from spans around in-process calls.

Three parts, all timed by spans opened in this file (``tracing.Tracer``):

1. Import cost, measured in fresh interpreters (the only cost that a warm
   process cannot show).
2. A sweep over m in SWEEP: each public function of each layer is called
   directly, in a span around enough calls to last TARGET_SPAN_S, and the
   per-call figure is the median over ROUNDS spans.
3. Replays of the workload's CLI commands through ``cli.main``, once
   untraced and once with every public function wrapped in a span
   (``tracing.instrument``). The traced replay gives each command's self
   time and each layer's self time; traced minus untraced wall time is the
   tracing overhead. Replay rounds repeat until the run's seconds are used.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median

import numpy as np

import checks
from tracing import LAYERS, Tracer, instrument
from workloads import WORKLOADS, cli_args

# m -> elevation mask (deg).
SWEEP = {5: 10.0, 12: 10.0, 30: 5.0, 60: 5.0}
# Trials per run_trials span: about 0.3-0.6 s each on a 2-core x86 machine.
SWEEP_TRIALS = {5: 8192, 12: 8192, 30: 4096, 60: 2048}
W2_SIZES = (12, 60)
# The mpmath FD audit takes about 20 s at m = 30 and 260 s at m = 60, which
# the 180 s per-run limit and the run budget cannot hold; it runs at these.
FD_SIZES = (5, 12)
ROUNDS = 3
TARGET_SPAN_S = 0.02
IMPORT_REPEATS = 3
SCENARIO_SEED = 1
SIGMA_V = 3.0
BIAS_B = 1.0e5
P_FA = 0.01



def _replays(commands: list[list[str]], trials: int, seed: int) -> list[list[str]]:
    """The workload's commands, plus a default simulate or audit if missing,
    so both commands' self times are reported for every workload."""
    names = [c[0] for c in commands]
    extra = [[name] for name in ("simulate", "audit") if name not in names]
    return [cli_args(c, trials, seed) for c in commands + extra]


class Sweep:
    """Collects per-layer metrics and counts failed operations."""

    def __init__(self, tracer: Tracer, rounds: int, target_s: float) -> None:
        self.tracer = tracer
        self.rounds = rounds
        self.target_s = target_s
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, what: str, fails: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(fails)
        self.failures += [f"{what}: {f}" for f in fails]

    def per_call(self, name: str, fn) -> float:
        """Median over rounds of one span around n calls of fn, divided by n."""
        t0 = time.perf_counter()
        fn()
        calls = max(1, math.ceil(self.target_s / max(time.perf_counter() - t0, 1e-7)))
        per = []
        for _ in range(self.rounds):
            with self.tracer.span(name) as rec:
                for _ in range(calls):
                    fn()
            per.append((rec["end"] - rec["start"]) / calls)
        return median(per)

    def timed(self, name: str, fn):
        """One span around one call; returns (seconds, result)."""
        with self.tracer.span(name) as rec:
            result = fn()
        return rec["end"] - rec["start"], result


def _import_seconds(root: Path, module: str, env: dict) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise RuntimeError(f"import {module} failed: {done.stderr.strip()}")
    return float(done.stdout.strip())


def traced_run(root: Path, env: dict, workload: str, seed: int, seconds: float,
               tiny: bool, work: Path) -> dict:
    """Run the traced per-layer sweep; returns metrics, counts and notes."""
    t_start = time.monotonic()
    tracer = Tracer(run_id=f"{workload}/sweep")
    sw = Sweep(tracer, rounds=1 if tiny else ROUNDS, target_s=0.002 if tiny else TARGET_SPAN_S)

    for module, name in (("numpy", "import.numpy_s"), ("edmdetect", "import.edmdetect_s")):
        vals = []
        for _ in range(1 if tiny else IMPORT_REPEATS):
            with tracer.span(name):
                vals.append(_import_seconds(root, module, env))
            sw.check(name, [])
        sw.put(name, median(vals), "s")

    sys.path.insert(0, str(root / "src"))
    from edmdetect import cli, edm, geometry, montecarlo, perturbation

    spec = WORKLOADS[workload]
    trials = 256 if tiny else spec["replay_trials"]
    replays = _replays(spec["commands"], trials, seed)
    parser = cli._build_parser()
    args = parser.parse_args(replays[0] + ["--out", str(work / "cli")])
    sw.put("cli.resolve_config_s", sw.per_call("cli.resolve_config", lambda: cli.resolve_config(args)), "s")
    cfg = cli.resolve_config(args)
    sw.put("cli.build_scenario_s", sw.per_call("cli.build_scenario", lambda: cli.build_scenario(cfg)), "s")
    gen = sw.per_call(
        "geometry.generate_constellation",
        lambda: geometry.generate_constellation(12, SWEEP[12], seed=SCENARIO_SEED),
    )
    sw.put("geometry.generate_constellation_ms", gen * 1e3, "ms")

    nm = geometry.NoiseModel(sigma_v=SIGMA_V, bias_b=BIAS_B)
    rng = np.random.default_rng(seed)
    block = getattr(montecarlo, "_BLOCK", 1024)
    for m, mask in SWEEP.items():
        sfx = f".m{m}"
        g = geometry.generate_constellation(m, mask, seed=SCENARIO_SEED)
        d = geometry.true_ranges(g)
        rho = d + BIAS_B + rng.normal(0.0, SIGMA_V, m)
        rho_nom = geometry.nominal_pseudoranges(d, nm).rho

        def pipeline(rho=rho, g=g):
            D = edm.edm_from_gram(edm.gram_from_positions(g.satellites.T))
            return edm.test_statistic(edm.spectrum(edm.gram_centered(edm.augment_edm(D, rho))))

        sw.put("edm.pipeline_us" + sfx, sw.per_call("edm.pipeline" + sfx, pipeline) * 1e6, "us")
        D = edm.edm_from_gram(edm.gram_from_positions(g.satellites.T))
        nominal = edm.spectrum(edm.gram_centered(edm.augment_edm(D, rho_nom)))
        gs = perturbation.gram_sensitivities(rho_nom)
        for name, fn, scale, unit in (
            ("gram_sensitivities", lambda: perturbation.gram_sensitivities(rho_nom), 1e6, "us"),
            ("eigenvalue_sensitivities", lambda: perturbation.eigenvalue_sensitivities(nominal, gs), 1e6, "us"),
            ("predict_q_distribution", lambda: perturbation.predict_q_distribution(g, nm), 1e3, "ms"),
        ):
            sw.put(f"perturbation.{name}_{unit}{sfx}", sw.per_call(f"perturbation.{name}{sfx}", fn) * scale, unit)
        dist = perturbation.predict_q_distribution(g, nm)
        sw.put(
            "perturbation.detection_threshold_us" + sfx,
            sw.per_call("perturbation.detection_threshold" + sfx,
                        lambda: perturbation.detection_threshold(dist, P_FA)) * 1e6,
            "us",
        )
        thr = perturbation.detection_threshold(dist, P_FA).one_sided_hi

        n = 256 if tiny else SWEEP_TRIALS[m]
        def trials_fn(workers, g=g, n=n, thr=thr):
            return montecarlo.run_trials(g, nm, n, seed, threshold=thr, workers=workers)

        t1, t2 = [], []
        for r in range(sw.rounds):
            # Alternate which worker count goes first, so drift hits both.
            order = (1, 2) if r % 2 == 0 else (2, 1)
            for workers in order if m in W2_SIZES else (1,):
                sec, records = sw.timed(f"montecarlo.run_trials.w{workers}{sfx}", lambda: trials_fn(workers))
                (t1 if workers == 1 else t2).append(sec / n)
        sw.put("montecarlo.run_trials_us_per_trial" + sfx, median(t1) * 1e6, "us/trial")
        if m in W2_SIZES:
            sw.put("montecarlo.run_trials_w2_us_per_trial" + sfx, median(t2) * 1e6, "us/trial")
            sw.put("montecarlo.run_trials.scaling_eff" + sfx, median(t1) / (2.0 * median(t2)), "ratio")
        tracemalloc.start()
        try:
            trials_fn(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sw.put("montecarlo.run_trials.alloc_peak_mb" + sfx, peak / 1e6, "MB")
        sw.put("montecarlo.run_trials.block_bytes_computed" + sfx, min(block, n) * (m + 1) ** 2 * 8, "B")

        summary = montecarlo.summarize(records, dist, threshold=thr)
        summ_s = sw.per_call("montecarlo.summarize" + sfx, lambda: montecarlo.summarize(records, dist, threshold=thr))
        sw.put("montecarlo.summarize_us_per_trial" + sfx, summ_s / n * 1e6, "us/trial")
        out = work / f"sweep-m{m}"
        out.mkdir(parents=True, exist_ok=True)
        prov = {"n_sats": m, "elevation_mask_deg": mask, "trials": n, "master_seed": seed, "p_fa": P_FA}
        for name, fn, scale, unit in (
            ("write_trials_csv", lambda: montecarlo.write_trials_csv(records, out / "trials.csv", prov), 1e6 / n, "us/trial"),
            ("write_summary_json", lambda: montecarlo.write_summary_json(summary, out / "summary.json", prov), 1e3, "ms"),
            ("write_histogram_csv", lambda: montecarlo.write_histogram_csv(summary, out / "histogram.csv", prov), 1e3, "ms"),
        ):
            key = f"montecarlo.{name}_{unit.replace('/trial', '_per_trial')}{sfx}"
            sw.put(key, sw.per_call(f"montecarlo.{name}{sfx}", fn) * scale, unit)
        sw.put("montecarlo.trials_csv_bytes" + sfx, (out / "trials.csv").stat().st_size, "B")
        sw.check(f"sweep m={m}", checks.check_outputs(out, "simulate", n))

        if m in FD_SIZES:
            fd_s = []
            for _ in range(sw.rounds):
                sec, fd = sw.timed("montecarlo.finite_difference_audit" + sfx,
                                   lambda: montecarlo.finite_difference_audit(g, nm, 1e-3))
                fd_s.append(sec)
                bad = [] if fd.max_relative_discrepancy <= checks.FD_TOL else [
                    f"FD discrepancy {fd.max_relative_discrepancy} > {checks.FD_TOL}"]
                sw.check(f"FD audit m={m}", bad)
            sw.put("montecarlo.finite_difference_audit_s" + sfx, median(fd_s), "s")
            if m == 12:
                sw.put("montecarlo.fd_max_rel.m12", fd.max_relative_discrepancy, "ratio")

    rounds = _replay_rounds(sw, cli, workload, replays, work, t_start, seconds,
                            min_rounds=1 if tiny else ROUNDS)
    tracer.dump(work / "trace.json")
    return {"metrics": sw.metrics, "attempted": sw.attempted, "failed": sw.failed,
            "failures": sw.failures,
            "notes": {"spans": len(tracer.spans), "replay_rounds": rounds, "replays": replays}}


def _replay_rounds(sw: Sweep, cli, workload, replays, work, t_start, seconds, min_rounds) -> int:
    tracer = sw.tracer
    overhead, cmd_self, layer_self = [], {}, {layer: [] for layer in LAYERS}
    rounds = 0
    while True:
        t_round = time.monotonic()
        walls = {}
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            tracer.run_id = f"{workload}/replay{rounds}/{'traced' if traced else 'untraced'}"
            t0 = time.perf_counter()
            for argv in replays:
                out = work / f"replay{rounds}-{int(traced)}-{argv[0]}"
                with contextlib.redirect_stdout(io.StringIO()):
                    if traced:
                        with instrument(tracer):
                            code = cli.main(argv + ["--out", str(out)])
                    else:
                        code = cli.main(argv + ["--out", str(out)])
                trials = int(argv[argv.index("--trials") + 1]) if "--trials" in argv else 0
                sw.check(f"replay {argv[0]}", [f"exit code {code}"] if code != 0 else
                         checks.check_outputs(out, argv[0], trials))
            walls[traced] = time.perf_counter() - t0
        run = f"{workload}/replay{rounds}/traced"
        idx = [i for i, rec in enumerate(tracer.spans) if rec["run"] == run]
        own = tracer.self_times()
        for i in idx:
            name = tracer.spans[i]["name"]
            if name in ("cli.cmd_simulate", "cli.cmd_audit"):
                cmd_self.setdefault(name, []).append(own[i])
        for layer in LAYERS:
            layer_self[layer].append(sum(own[i] for i in idx if tracer.spans[i]["name"].startswith(layer + ".")))
        overhead.append(walls[True] - walls[False])
        rounds += 1
        elapsed = time.monotonic() - t_start
        if rounds >= min_rounds and elapsed + (time.monotonic() - t_round) > seconds:
            break
    for name in ("cli.cmd_simulate", "cli.cmd_audit"):
        sw.put(name + ".self_s", median(cmd_self[name]), "s")
    for layer in LAYERS:
        sw.put(f"layer.{layer}.self_s", median(layer_self[layer]), "s")
    sw.put("trace.overhead_s", median(overhead), "s")
    return rounds
