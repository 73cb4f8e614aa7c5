"""Write the horizon-ring scenarios and their manifest into this directory.

    PYTHONPATH=src python tests/data/rings/make_rings.py

A ring puts m satellites on the orbit sphere around a receiver at R_E z:
satellite i sits at elevation e (1 + U(-1/2, 1/2)) and azimuth
2 pi i / m + U(-0.3, 0.3) rad, with each file's draws from
numpy.random.default_rng(4) (the m elevation factors, then the m azimuth
offsets). As e -> 0 the satellites and the receiver become coplanar and
the vertical DOP grows. Every file carries sigma_v = 3 m and a clock bias
of 1e5 m.

manifest.json records, per file: the VDOP from the drawn line-of-sight
vectors; the exit code and sigma_q of `edmdetect predict`; the mean and
standard deviation of q over a 200,000-trial run_trials (master seed 3);
and, where predict answers, the mean shift (mean - mu_q) / sigma_q and the
spread ratio std / sigma_q. Predict's eigenvalue gap guard refuses every
ring at e <= 1 deg (exit 3): as the ring flattens, the clock bias and the
receiver's height become collinear and the bias-activated lambda_5 falls
into the zero cluster. The last ring is flatter still: lambda_4 falls in
too, as the satellites and the receiver all but share a plane.
"""

import json
import sys
from pathlib import Path

import numpy as np
import yaml

from edmdetect import (
    DegenerateEigenvalueError,
    NoiseModel,
    ScenarioGeometry,
    predict_q_distribution,
    run_trials,
)
from edmdetect.cli import EXIT_NUMERICAL, EXIT_OK
from edmdetect.geometry import DEFAULT_ORBIT_RADIUS_M, EARTH_RADIUS_M

HERE = Path(__file__).resolve().parent
ELEVATIONS_DEG = (10.0, 1.0, 0.3, 0.1)
COUNTS = (6, 8, 12)
REFUSED = (0.0001, 8)  # (elevation in degrees, m) of the near-coplanar ring
SIGMA_V, BIAS_B = 3.0, 1.0e5
TRIALS, MASTER_SEED = 200_000, 3


def ring(elevation_deg: float, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Receiver (3,), satellites (m, 3) and the VDOP of one ring."""
    rng = np.random.default_rng(4)
    el = np.radians(elevation_deg) * (1.0 + rng.uniform(-0.5, 0.5, m))
    az = 2.0 * np.pi * np.arange(m) / m + rng.uniform(-0.3, 0.3, m)
    los = np.column_stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    # The receiver is at R_E z, so local east/north/up are x/y/z; each line of
    # sight meets the orbit sphere at the positive root of |r + t los| = R.
    receiver = np.array([0.0, 0.0, EARTH_RADIUS_M])
    b = EARTH_RADIUS_M * los[:, 2]
    t = -b + np.sqrt(b * b + DEFAULT_ORBIT_RADIUS_M**2 - EARTH_RADIUS_M**2)
    satellites = receiver + t[:, None] * los
    design = np.column_stack([-los, np.ones(m)])
    vdop = float(np.sqrt(np.linalg.inv(design.T @ design)[2, 2]))
    return receiver, satellites, vdop


def entry(name: str, elevation_deg: float, m: int) -> dict:
    receiver, satellites, vdop = ring(elevation_deg, m)
    doc = {
        "receiver": receiver.tolist(),
        "satellites": satellites.tolist(),
        "sigma_v": SIGMA_V,
        "bias_b": BIAS_B,
    }
    (HERE / name).write_text(yaml.safe_dump(doc, default_flow_style=None, sort_keys=False))
    g = ScenarioGeometry(receiver, satellites)
    nm = NoiseModel(SIGMA_V, BIAS_B)
    q = run_trials(g, nm, TRIALS, MASTER_SEED).q
    row = {
        "file": name, "elevation_deg": elevation_deg, "m": m, "vdop": vdop,
        "predict_exit": EXIT_NUMERICAL, "sigma_q": None,
        "q_mean": float(q.mean()), "q_std": float(q.std(ddof=1)),
        "mean_shift": None, "sigma_ratio": None,
    }
    try:
        dist = predict_q_distribution(g, nm)
    except DegenerateEigenvalueError:
        return row
    return {
        **row,
        "predict_exit": EXIT_OK,
        "sigma_q": dist.sigma_q,
        "mean_shift": (row["q_mean"] - dist.mu_q) / dist.sigma_q,
        "sigma_ratio": row["q_std"] / dist.sigma_q,
    }


def main() -> int:
    rows = [
        entry(f"ring_e{e:g}_m{m}.yaml", e, m) for e in ELEVATIONS_DEG for m in COUNTS
    ]
    e, m = REFUSED
    rows.append(entry(f"ring_e{e:g}_m{m}_refused.yaml", e, m))
    manifest = {
        "trials": TRIALS,
        "master_seed": MASTER_SEED,
        "scenarios": rows,
    }
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    for row in rows:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
