"""Command-line runner: simulate, predict, audit.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure,
4 audit tolerance exceeded. All outputs are deterministic for a fixed
config and seed (no timestamps); each output file embeds the resolved
configuration in a comment header or a ``config`` JSON field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import edm, geometry, montecarlo, perturbation
from .errors import ConfigError, DegenerateEigenvalueError, GeometryError, SpectrumError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_AUDIT = 4

# Run keys and their (type, default). The scenario's geometry and noise keys
# are parsed by geometry.parse_geometry and geometry.parse_noise.
_RUN_KEYS = {
    "trials": (int, 10_000),
    "master_seed": (int, 42),
    "p_fa": (float, 0.01),
    "out": (str, "out"),
}


@dataclass
class RunConfig:
    """Fully resolved run parameters (file values overridden by flags)."""

    scenario_file: Path | None
    geometry_spec: geometry.GeometrySpec
    noise: geometry.NoiseModel
    trials: int
    master_seed: int
    p_fa: float
    out_dir: Path

    def validate(self) -> None:
        if self.trials < 2:
            raise ConfigError(f"trials must be >= 2, got {self.trials}")
        if not 0.0 < self.p_fa < 0.5:
            raise ConfigError(f"pfa must lie in (0, 0.5), got {self.p_fa}")
        if self.master_seed < 0:
            raise ConfigError("seed must be non-negative")

    def provenance(self) -> dict:
        return {
            "scenario_file": str(self.scenario_file) if self.scenario_file else "",
            **self.geometry_spec.provenance(),
            **asdict(self.noise),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "ordering": edm.ORDERING_MAGNITUDE,
            "p_fa": self.p_fa,
        }


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win).

    Flag destinations are the config keys they override; the file is read
    once and every value is converted and validated here.
    """
    doc = geometry.read_mapping(args.config) if args.config is not None else {}
    spec = geometry.parse_geometry(doc)
    unknown = set(doc) - {*geometry.GEOMETRY_KEYS, *geometry.NOISE_KEYS, *_RUN_KEYS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(map(str, unknown))}")
    doc = {**doc, **{
        key: value for key, value in vars(args).items()
        if value is not None and key not in ("command", "config")
    }}
    run = {
        key: geometry.config_value(doc, key, kind, default)
        for key, (kind, default) in _RUN_KEYS.items()
    }
    cfg = RunConfig(
        # The config file doubles as the scenario file when it names a geometry.
        scenario_file=Path(args.config) if spec.given else None,
        geometry_spec=spec,
        noise=geometry.parse_noise(doc),
        out_dir=Path(run.pop("out")),
        **run,
    )
    cfg.validate()
    return cfg


def build_scenario(cfg: RunConfig) -> tuple[geometry.ScenarioGeometry, geometry.NoiseModel]:
    """The configured geometry (explicit or generated) and noise model."""
    return cfg.geometry_spec.build(), cfg.noise


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


def cmd_predict(cfg: RunConfig) -> int:
    """Write the predicted q distribution and thresholds; no simulation."""
    geom, nm = build_scenario(cfg)
    dist = perturbation.predict_q_distribution(geom, nm)
    thresholds = perturbation.detection_threshold(dist, cfg.p_fa)
    doc = dist.to_json_dict()
    doc["thresholds"] = thresholds._asdict()
    doc["config"] = cfg.provenance()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.out_dir / "prediction.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
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
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "checks": [
            {"name": name, "value": value, "tolerance": tol, "passed": ok}
            for name, value, tol, ok in rows
        ],
        "passed": all_ok,
        "config": cfg.provenance(),
    }
    (cfg.out_dir / "audit.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
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
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
