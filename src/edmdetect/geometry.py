"""Receiver/satellite scenarios and pseudorange sampling.

All quantities are SI meters in an ECEF-like frame. Everything here is a
pure function of its inputs (plus an explicit seed), so concurrent use is
safe and results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .edm import SQRT_FLOAT_MAX
from .errors import ConfigError, ConstellationSamplingError, GeometryError

EARTH_RADIUS_M = 6_371_000.0

# Standard GPS-like defaults; the method itself does not depend on them and
# they are overridable everywhere they appear.
DEFAULT_ORBIT_RADIUS_M = 26_560_000.0
DEFAULT_ELEVATION_MASK_DEG = 10.0
DEFAULT_SIGMA_V_M = 3.0
DEFAULT_BIAS_M = 1.0e5

_MIN_SEPARATION_M = 1.0
_RANK_TOL_REL = 1e-9
_DRAW_BATCH = 256


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _ranges(receiver: np.ndarray, satellites: np.ndarray) -> np.ndarray:
    return np.linalg.norm(satellites - receiver[None, :], axis=1)


@dataclass
class ScenarioGeometry:
    """A receiver position plus ``m`` satellite positions.

    Parameters
    ----------
    receiver : (3,) array
        Receiver position, meters.
    satellites : (m, 3) array
        One satellite position per row, meters.

    Raises
    ------
    GeometryError
        If the arrays have the wrong shape or non-finite entries, fewer than
        5 satellites are given, any two points (satellites or receiver) are
        closer than 1 m, or the full point set is coplanar (rank of the
        centered position stack < 3).
    """

    receiver: np.ndarray
    satellites: np.ndarray

    def __post_init__(self):
        self.receiver = np.asarray(self.receiver, dtype=float)
        self.satellites = np.atleast_2d(np.asarray(self.satellites, dtype=float))
        if self.receiver.size != 3:
            raise GeometryError(f"receiver must be 3 coordinates, got {self.receiver.shape}")
        self.receiver = self.receiver.reshape(3)
        if self.satellites.ndim != 2 or self.satellites.shape[1] != 3:
            raise GeometryError(
                f"satellites must be (m, 3), got {self.satellites.shape}"
            )
        m = self.m
        if m < 5:
            raise GeometryError(
                f"need at least 5 satellites for a 5-eigenvalue test statistic, got {m}"
            )
        pts = np.vstack([self.receiver, self.satellites])
        if not np.all(np.isfinite(pts)):
            raise GeometryError("receiver and satellite positions must be finite")
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= _MIN_SEPARATION_M:
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            raise GeometryError(
                f"points {i} and {j} are {dist[i, j]:.3g} m apart "
                f"(min separation {_MIN_SEPARATION_M} m; index 0 is the receiver)"
            )
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[2] <= _RANK_TOL_REL * sv[0]:
            raise GeometryError(
                "receiver and satellites are coplanar (centered position stack has "
                f"rank < 3: singular values {sv[:3]})"
            )
        self.receiver.flags.writeable = False
        self.satellites.flags.writeable = False

    @property
    def m(self) -> int:
        return self.satellites.shape[0]


@dataclass
class NoiseModel:
    """Pseudorange error model: i.i.d. N(0, sigma_v^2) noise plus a clock bias."""

    sigma_v: float = DEFAULT_SIGMA_V_M
    bias_b: float = DEFAULT_BIAS_M

    def __post_init__(self):
        if not 0 < self.sigma_v <= SQRT_FLOAT_MAX:
            raise ValueError(
                f"sigma_v must be > 0 with a finite square (at most {SQRT_FLOAT_MAX:.4g} m), "
                f"got {self.sigma_v}"
            )
        if not np.isfinite(self.bias_b):
            raise ValueError(f"clock bias must be finite, got {self.bias_b}")


@dataclass
class PseudorangeSample:
    """Measured pseudoranges with their generating ingredients.

    ``v`` is the noise draw (None for field data). When present,
    ``rho = d_true + b_effective + v`` holds to machine precision.
    """

    rho: np.ndarray
    d_true: np.ndarray
    b_effective: float
    v: np.ndarray | None = None
    fault_index: int | None = None
    fault_bias: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.d_true = np.asarray(self.d_true, dtype=float)
        if self.v is not None:
            self.v = np.asarray(self.v, dtype=float)

    @property
    def m(self) -> int:
        return self.rho.shape[0]


def generate_constellation(
    n_sats: int,
    elevation_mask_deg: float = DEFAULT_ELEVATION_MASK_DEG,
    orbit_radius_m: float = DEFAULT_ORBIT_RADIUS_M,
    seed: int | None = None,
) -> ScenarioGeometry:
    """Draw a random receiver and ``n_sats`` visible satellites.

    The receiver is placed uniformly on a spherical Earth; satellites are
    drawn uniformly on the orbit sphere and kept only if their elevation as
    seen from the receiver is at least ``elevation_mask_deg``. Deterministic
    for a fixed seed.

    Raises
    ------
    ConstellationSamplingError
        If the rejection loop hits its draw cap (mask too high for the
        requested satellite count).
    """
    if n_sats < 5:
        raise GeometryError(f"n_sats must be >= 5, got {n_sats}")
    if not 0.0 <= elevation_mask_deg < 90.0:
        raise GeometryError(
            f"elevation mask must lie in [0, 90) degrees, got {elevation_mask_deg}"
        )
    # A NaN fails the comparison, so it is refused too.
    if not EARTH_RADIUS_M < orbit_radius_m < np.inf:
        raise GeometryError(
            f"orbit radius {orbit_radius_m} m must be finite and exceed the Earth "
            f"radius {EARTH_RADIUS_M} m"
        )

    rng = np.random.default_rng(seed)
    up = _unit(rng.normal(size=3))
    receiver = EARTH_RADIUS_M * up
    sin_mask = np.sin(np.radians(elevation_mask_deg))

    cap = max(200_000, 20_000 * n_sats)
    kept: list[np.ndarray] = []
    draws = 0
    while len(kept) < n_sats:
        if draws >= cap:
            raise ConstellationSamplingError(
                f"placed only {len(kept)}/{n_sats} satellites after {draws} draws; "
                f"elevation mask {elevation_mask_deg} deg is too restrictive"
            )
        pts = rng.normal(size=(_DRAW_BATCH, 3))
        pts *= orbit_radius_m / np.linalg.norm(pts, axis=1)[:, None]
        draws += _DRAW_BATCH
        los = pts - receiver[None, :]
        sin_el = (los @ up) / np.linalg.norm(los, axis=1)
        for p in pts[sin_el >= sin_mask]:
            kept.append(p)
            if len(kept) == n_sats:
                break
    return ScenarioGeometry(receiver=receiver, satellites=np.array(kept))


def true_ranges(g: ScenarioGeometry) -> np.ndarray:
    """Euclidean distance from the receiver to each satellite, meters."""
    return _ranges(g.receiver, g.satellites)


def elevation_angles(g: ScenarioGeometry) -> np.ndarray:
    """Elevation of each satellite in degrees (spherical-Earth up vector)."""
    up = _unit(g.receiver)
    los = g.satellites - g.receiver[None, :]
    sin_el = (los @ up) / np.linalg.norm(los, axis=1)
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))


def _checked_ranges(d: np.ndarray) -> np.ndarray:
    """``d`` as floats; a NaN fails both comparisons, an infinity one of them."""
    d = np.asarray(d, dtype=float)
    if not np.all((0 < d) & (d < np.inf)):
        raise GeometryError("true ranges must all be positive and finite")
    return d


def sample_pseudoranges(
    d: np.ndarray,
    nm: NoiseModel,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> PseudorangeSample:
    """Draw one noisy pseudorange vector: rho = d + clock bias + v.

    ``v`` is i.i.d. N(0, sigma_v^2); the draw is deterministic per seed.
    """
    d = _checked_ranges(d)
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, nm.sigma_v, size=d.shape[0])
    b = nm.bias_b
    return PseudorangeSample(rho=d + b + v, d_true=d, b_effective=b, v=v)


def nominal_pseudoranges(d: np.ndarray, nm: NoiseModel) -> PseudorangeSample:
    """The exact noiseless sample rho = d + clock bias (v = 0)."""
    d = _checked_ranges(d)
    b = nm.bias_b
    return PseudorangeSample(rho=d + b, d_true=d, b_effective=b, v=np.zeros_like(d))


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------
#
# A YAML mapping with SI-meter values: either an explicit point set
# (receiver: [x, y, z]; satellites: [[x, y, z], ...]) or a generated one
# (constellation: {n_sats, elevation_mask_deg, orbit_radius_m}; seed), plus
# the optional noise keys sigma_v and bias_b. The README gives a full example.

GEOMETRY_KEYS = ("receiver", "satellites", "constellation", "seed")
NOISE_KEYS = ("sigma_v", "bias_b")


def config_value(mapping: dict, key: str, kind, default=None):
    """``kind(mapping.get(key, default))``; a value ``kind`` rejects raises ConfigError.

    An ``int`` value must be integral, never truncated: 2.9 is refused while
    1.0e5 (a string to YAML 1.1) gives 100000.
    """
    value = mapping.get(key, default)
    try:
        if kind is int:
            exact = Decimal(value)  # exact for ints, floats and numeric strings alike
            if exact != exact.to_integral_value():
                raise ValueError
            return int(exact)
        return kind(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ConfigError(f"invalid value for {key}: {value!r}") from None


@dataclass(frozen=True)
class GeometrySpec:
    """A scenario geometry as parsed by parse_geometry, not yet built.

    ``kwargs`` are the arguments of ScenarioGeometry for an explicit point
    set, else of generate_constellation. ``given`` is False when the mapping
    named no geometry and the default constellation stands in.
    """

    kwargs: dict
    given: bool

    def build(self) -> ScenarioGeometry:
        if "satellites" in self.kwargs:
            return ScenarioGeometry(**self.kwargs)
        return generate_constellation(**self.kwargs)

    def provenance(self) -> dict:
        """The values that produced the geometry; explicit points record only their count."""
        kw = dict(self.kwargs)
        if "satellites" in kw:
            return {"n_sats": kw["satellites"].shape[0]}
        kw["scenario_seed"] = kw.pop("seed")
        return kw


def parse_geometry(mapping: dict) -> GeometrySpec:
    """Parse the geometry keys (receiver, satellites, constellation, seed).

    This is the only reader of those keys and the only holder of their
    defaults; a mapping that names no geometry gets the default
    constellation.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"scenario must be a mapping, got {type(mapping).__name__}")
    has_explicit = "receiver" in mapping or "satellites" in mapping
    has_generated = "constellation" in mapping
    if has_explicit and has_generated:
        raise ConfigError("give either receiver/satellites or constellation, not both")
    if has_explicit:
        if "receiver" not in mapping or "satellites" not in mapping:
            raise ConfigError("explicit scenarios need both receiver and satellites")
        if "seed" in mapping:
            raise ConfigError("seed applies to a generated constellation, not to explicit points")
        points = {
            key: config_value(mapping, key, lambda v: np.asarray(v, dtype=float))
            for key in ("receiver", "satellites")
        }
        return GeometrySpec(points, given=True)
    params = mapping.get("constellation") or {}
    if not isinstance(params, dict):
        raise ConfigError(f"constellation must be a mapping, got {params!r}")
    unknown = set(params) - {"n_sats", "elevation_mask_deg", "orbit_radius_m"}
    if unknown:
        raise ConfigError(f"unknown constellation keys: {sorted(unknown)}")
    kwargs = {
        "n_sats": config_value(params, "n_sats", int, 12),
        "elevation_mask_deg": config_value(
            params, "elevation_mask_deg", float, DEFAULT_ELEVATION_MASK_DEG
        ),
        "orbit_radius_m": config_value(params, "orbit_radius_m", float, DEFAULT_ORBIT_RADIUS_M),
        "seed": config_value(mapping, "seed", int, 1),
    }
    if kwargs["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    return GeometrySpec(kwargs, given=has_generated)


def parse_noise(mapping: dict) -> NoiseModel:
    """NoiseModel from the noise keys; absent keys keep NoiseModel's defaults."""
    kwargs = {
        key: config_value(mapping, key, float)
        for key in NOISE_KEYS
        if key in mapping
    }
    try:
        return NoiseModel(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def read_mapping(path: str | Path) -> dict:
    """The YAML document of a config or scenario file; an empty file gives {}."""
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
    return {} if doc is None else doc

