"""Command-line runner: simulate, predict, audit.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure
or failed allocation, 4 audit tolerance exceeded. All outputs are
deterministic for a fixed config and seed (no timestamps); each output
file embeds the resolved configuration in a comment header or a
``config`` JSON field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import geometry, montecarlo, perturbation
from .errors import ConfigError, DegenerateEigenvalueError, GeometryError, SpectrumError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_AUDIT = 4

# The config / scenario file is one YAML mapping with SI-meter values; the
# README gives a full example. Its top-level keys other than the geometry's,
# with their (type, default); each flag overrides the key named by its dest.
_KEYS = {
    "trials": (int, 10_000),
    "master_seed": (int, 42),
    "p_fa": (float, 0.01),
    "out": (str, "out"),
    "sigma_v": (float, geometry.DEFAULT_SIGMA_V_M),
    "bias_b": (float, geometry.DEFAULT_BIAS_M),
    "seed": (int, 1),  # the constellation's seed, not the trials'
}
# The geometry is an explicit point set (receiver: [x, y, z];
# satellites: [[x, y, z], ...]) or a generated one (constellation: {...},
# with generate_constellation's arguments below, plus seed).
_POINT_KEYS = ("receiver", "satellites")
_CONSTELLATION_KEYS = {
    "n_sats": (int, 12),
    "elevation_mask_deg": (float, geometry.DEFAULT_ELEVATION_MASK_DEG),
    "orbit_radius_m": (float, geometry.DEFAULT_ORBIT_RADIUS_M),
}
# The largest trial count whose (trials, 5) float64 block numpy can address.
_MAX_TRIALS = sys.maxsize // (5 * 8)


def config_value(mapping: dict, key: str, kind, default=None):
    """``kind(mapping.get(key, default))``; a value ``kind`` rejects raises ConfigError.

    An ``int`` value must be integral, never truncated: 2.9 is refused while
    1.0e5 (a string to YAML 1.1) gives 100000. A YAML boolean is not a
    number, and a ``str`` value must be a string: ``yes`` for a seed or
    ``[1]`` for an output directory is refused, not read as 1 or "[1]".
    """
    value = mapping.get(key, default)
    try:
        if isinstance(value, bool) and kind in (int, float):
            raise TypeError
        if kind is str and not isinstance(value, str):
            raise TypeError
        if kind is int:
            exact = Decimal(value)  # exact for ints, floats and numeric strings alike
            if exact != exact.to_integral_value():
                raise ValueError
            return int(exact)
        return kind(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ConfigError(f"invalid value for {key}: {value!r}") from None


def read_mapping(path: str | Path) -> dict:
    """The YAML mapping of a config or scenario file; an empty file gives {}."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"file not found: {path}")
    import yaml  # only config and scenario files need it; importing it slows every command

    try:
        doc = yaml.safe_load(path.read_bytes())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if getattr(exc, "problem", None) and mark is not None:
            detail = f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
        else:
            detail = " ".join(str(exc).split())
        raise ConfigError(f"cannot parse {path}: {detail}") from None
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario must be a mapping, got {type(doc).__name__}")
    return doc


@dataclass
class RunConfig:
    """Fully resolved run parameters (file values overridden by flags).

    ``scenario`` holds ScenarioGeometry's arguments for an explicit point
    set, else generate_constellation's.
    """

    scenario_file: Path | None
    scenario: dict
    noise: geometry.NoiseModel
    trials: int
    master_seed: int
    p_fa: float
    out_dir: Path

    def provenance(self) -> dict:
        """The run's values; explicit points record only their count."""
        if "satellites" in self.scenario:
            scenario = {"n_sats": self.scenario["satellites"].shape[0]}
        else:
            scenario = dict(self.scenario)
            scenario["scenario_seed"] = scenario.pop("seed")
        return {
            "scenario_file": str(self.scenario_file) if self.scenario_file else "",
            **scenario,
            **asdict(self.noise),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "p_fa": self.p_fa,
        }


def _scenario(doc: dict) -> dict:
    """The geometry's arguments; a file that names no geometry gets the default constellation."""
    points = [key for key in _POINT_KEYS if key in doc]
    if points and "constellation" in doc:
        raise ConfigError("give either receiver/satellites or constellation, not both")
    if points:
        if len(points) < len(_POINT_KEYS):
            raise ConfigError("explicit scenarios need both receiver and satellites")
        if "seed" in doc:
            raise ConfigError("seed applies to a generated constellation, not to explicit points")
        return {
            key: config_value(doc, key, lambda v: np.asarray(v, dtype=float))
            for key in _POINT_KEYS
        }
    params = doc.get("constellation") or {}
    if not isinstance(params, dict):
        raise ConfigError(f"constellation must be a mapping, got {params!r}")
    unknown = set(params) - set(_CONSTELLATION_KEYS)
    if unknown:
        raise ConfigError(f"unknown constellation keys: {sorted(map(str, unknown))}")
    return {
        key: config_value(params, key, kind, default)
        for key, (kind, default) in _CONSTELLATION_KEYS.items()
    }


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win).

    Flag destinations are the config keys they override; the file is read
    once and every value is converted and validated here.
    """
    doc = read_mapping(args.config) if args.config is not None else {}
    unknown = set(doc) - {*_KEYS, *_POINT_KEYS, "constellation"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(map(str, unknown))}")
    scenario = _scenario(doc)
    doc = {**doc, **{
        key: value for key, value in vars(args).items()
        if value is not None and key not in ("command", "config")
    }}
    run = {key: config_value(doc, key, kind, default) for key, (kind, default) in _KEYS.items()}
    seed = run.pop("seed")
    if "satellites" not in scenario:
        scenario["seed"] = seed
    try:
        noise = geometry.NoiseModel(run.pop("sigma_v"), run.pop("bias_b"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if run["trials"] < 2:
        raise ConfigError(f"trials must be >= 2, got {run['trials']}")
    if run["trials"] > _MAX_TRIALS:
        raise ConfigError(
            f"trials must be at most {_MAX_TRIALS} (a (trials, 5) float64 block "
            f"numpy can address), got {run['trials']}"
        )
    if not 0.0 < run["p_fa"] < 0.5:
        raise ConfigError(f"pfa must lie in (0, 0.5), got {run['p_fa']}")
    if run["p_fa"] / 2.0 == 0.0:
        raise ConfigError(f"pfa {run['p_fa']} is too small: half of it underflows to 0")
    if min(seed, run["master_seed"]) < 0:
        raise ConfigError("seed must be non-negative")
    return RunConfig(
        # The config file doubles as the scenario file when it names a geometry.
        scenario_file=Path(args.config) if {"constellation", *_POINT_KEYS} & doc.keys() else None,
        scenario=scenario,
        noise=noise,
        out_dir=Path(run.pop("out")),
        **run,
    )


def build_scenario(cfg: RunConfig) -> tuple[geometry.ScenarioGeometry, geometry.NoiseModel]:
    """The configured geometry (explicit or generated) and noise model."""
    if "satellites" in cfg.scenario:
        return geometry.ScenarioGeometry(**cfg.scenario), cfg.noise
    return geometry.generate_constellation(**cfg.scenario), cfg.noise


def cmd_simulate(cfg: RunConfig) -> int:
    """Run the Monte Carlo experiment and write trials/summary/histogram files."""
    geom, nm = build_scenario(cfg)
    dist = perturbation.predict_q_distribution(geom, nm)
    thresholds = perturbation.detection_threshold(dist, cfg.p_fa)
    batch = montecarlo.run_trials(
        geom, nm, cfg.trials, cfg.master_seed, threshold=thresholds.one_sided_hi
    )
    summary = montecarlo.summarize(batch, dist)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    prov = cfg.provenance()
    montecarlo.write_trials_csv(batch, cfg.out_dir / "trials.csv", prov)
    montecarlo.write_summary_json(summary, cfg.out_dir / "summary.json", prov)
    montecarlo.write_histogram_csv(summary, cfg.out_dir / "histogram.csv", prov)

    ks_flag = "<=5%crit" if summary.ks_statistic <= summary.ks_critical_5pct else (
        "<=1%crit" if summary.ks_statistic <= summary.ks_critical_1pct else ">1%crit"
    )
    print(
        f"q: predicted mu={dist.mu_q:.6e} sigma={dist.sigma_q:.6e} | "
        f"empirical mean={summary.q_mean:.6e} std={summary.q_std:.6e} | "
        f"KS={summary.ks_statistic:.4f} ({ks_flag}, n={summary.n_trials}) | "
        f"false-alarm {summary.false_alarm_rate:.4f} (target {cfg.p_fa:.4f})"
    )
    return EXIT_OK


def _write_json(cfg: RunConfig, name: str, doc: dict) -> Path:
    """Write ``doc``, with the run's config added, to cfg.out_dir / name, keys sorted."""
    doc["config"] = cfg.provenance()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.out_dir / name
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


def cmd_predict(cfg: RunConfig) -> int:
    """Write the predicted q distribution and thresholds; no simulation."""
    geom, nm = build_scenario(cfg)
    dist = perturbation.predict_q_distribution(geom, nm)
    thresholds = perturbation.detection_threshold(dist, cfg.p_fa)
    doc = dist.to_json_dict()
    doc["thresholds"] = thresholds._asdict()
    out = _write_json(cfg, "prediction.json", doc)
    print(
        f"prediction: mu_q={dist.mu_q:.6e} sigma_q={dist.sigma_q:.6e} "
        f"one-sided threshold={thresholds.one_sided_hi:.6e} (p_fa={cfg.p_fa}) -> {out}"
    )
    return EXIT_OK


def cmd_audit(cfg: RunConfig) -> int:
    """Run the finite-difference and rank-structure audits; nonzero exit on failure."""
    from . import audit  # only this command compiles the audit

    rows = audit.run_checks(*build_scenario(cfg))
    all_ok = True
    for name, value, tol, ok in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {value:.6g} (tolerance {tol:g})")
        all_ok &= ok
    checks = [dict(zip(("name", "value", "tolerance", "passed"), row)) for row in rows]
    _write_json(cfg, "audit.json", {"checks": checks, "passed": all_ok})
    return EXIT_OK if all_ok else EXIT_AUDIT


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="YAML config / scenario file")
    shared.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    shared.add_argument("--seed", dest="master_seed", type=int, help="master seed for trial noise")
    shared.add_argument(
        "--sigma", dest="sigma_v", type=float, help="pseudorange noise sigma_v, meters"
    )
    shared.add_argument("--bias", dest="bias_b", type=float, help="receiver clock bias, meters")
    shared.add_argument(
        "--pfa", dest="p_fa", type=float, help="false-alarm probability in (0, 0.5)"
    )
    shared.add_argument("--out", help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="edmdetect",
        description=(
            "Distance-matrix GNSS fault-detection statistic: analytic nominal "
            "distribution and Monte Carlo validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "simulate", parents=[shared],
        help="run noisy trials and compare against the prediction",
    )
    sub.add_parser(
        "predict", parents=[shared],
        help="write the predicted q distribution and thresholds",
    )
    sub.add_parser(
        "audit", parents=[shared],
        help="finite-difference and rank-structure audits",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"simulate": cmd_simulate, "predict": cmd_predict, "audit": cmd_audit}
    try:
        cfg = resolve_config(args)
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"error (geometry): {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateEigenvalueError, SpectrumError, ZeroDivisionError) as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error (memory): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
