"""Receiver/satellite scenarios and pseudorange sampling.

All quantities are SI meters in an ECEF-like frame. Everything here is a
pure function of its inputs (plus an explicit seed), so concurrent use is
safe and results are reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._normal import Normals
from .edm import MAX_LENGTH_M, MIN_LENGTH_M, checked_positions, checked_ranges
from .errors import ConstellationSamplingError, GeometryError

EARTH_RADIUS_M = 6_371_000.0

# Standard GPS-like defaults; the method itself does not depend on them and
# they are overridable everywhere they appear.
DEFAULT_ORBIT_RADIUS_M = 26_560_000.0
DEFAULT_ELEVATION_MASK_DEG = 10.0
DEFAULT_SIGMA_V_M = 3.0
DEFAULT_BIAS_M = 1.0e5

_MIN_SEPARATION_REL = 2.0**-24  # of the length scale L: 1 m at L = 2^24 m
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

    ``length_scale`` is L = 2^floor(log2 max_j |s_j|), 2^24 m for GPS orbits;
    the numerics' length rules are multiples of L, exact under 2^k rescaling.

    Raises
    ------
    GeometryError
        If the arrays have the wrong shape or entries that are not finite
        or exceed MAX_LENGTH_M, fewer than 5 satellites are given, L is
        below MIN_LENGTH_M, two points are 2^-24 L or less apart, or the
        point set is coplanar (rank of the centered position stack < 3).
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
        pts = checked_positions(np.vstack([self.receiver, self.satellites]))
        # Norms in units of 2^e, so no square underflows; then lengths in units of L.
        _, e = math.frexp(np.abs(self.satellites).max())
        _, f = math.frexp(np.linalg.norm(np.ldexp(self.satellites, -e), axis=1).max())
        self.length_scale = L = math.ldexp(1.0, e + f - 1)
        if L < MIN_LENGTH_M:
            raise GeometryError(f"satellite positions have length scale {L:.4g} m, below the "
                                f"smallest supported {MIN_LENGTH_M:.4g} m")
        pts = np.ldexp(pts, 1 - e - f)
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= _MIN_SEPARATION_REL:
            i, j = np.unravel_index(np.argmin(dist), dist.shape)
            raise GeometryError(
                f"points {i} and {j} are {dist[i, j] * L:.3g} m apart (min separation "
                f"{_MIN_SEPARATION_REL * L:.3g} m; index 0 is the receiver)")
        centered = pts - pts.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        if sv[2] <= _RANK_TOL_REL * sv[0]:
            raise GeometryError(
                "receiver and satellites are coplanar (centered position stack has "
                f"rank < 3: singular values {sv[:3] * L} m)"
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
        # A NaN fails both comparisons, so it is refused too.
        if not 0 < self.sigma_v <= MAX_LENGTH_M:
            raise ValueError(f"sigma_v must lie in (0, {MAX_LENGTH_M:.4g}] m, got {self.sigma_v}")
        if not abs(self.bias_b) <= MAX_LENGTH_M:
            raise ValueError(f"|bias_b| must be at most {MAX_LENGTH_M:.4g} m, got {self.bias_b}")


@dataclass
class PseudorangeSample:
    """Measured pseudoranges with their generating ingredients.

    ``v`` is the noise draw (None for field data). When present,
    ``rho = d_true + bias_b + v`` holds to machine precision, with bias_b
    the NoiseModel's clock bias.
    """

    rho: np.ndarray
    d_true: np.ndarray
    v: np.ndarray | None = None

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
    seen from the receiver is at least ``elevation_mask_deg``. The normals
    behind both are those of ``np.random.default_rng(seed).normal``, three
    for the receiver and then 256 x 3 per batch of candidates, drawn by a
    stdlib copy of that stream (``_normal.Normals``): the result is the
    same bit for bit whichever numpy is installed, and drawing it does not
    load ``numpy.random``. ``seed`` is a non-negative integer, or None for
    fresh entropy.

    Raises
    ------
    GeometryError
        If ``n_sats`` is not an integer of at least 5, the mask is outside
        [0, 90) degrees, or the orbit radius is not above the Earth radius
        and at most MAX_LENGTH_M.
    ConstellationSamplingError
        If the rejection loop hits its draw cap (mask too high for the
        requested satellite count).
    ValueError, TypeError
        If ``seed`` is negative, or not an integer.
    """
    if isinstance(n_sats, bool) or not isinstance(n_sats, numbers.Integral):
        raise GeometryError(f"n_sats must be an integer, got {n_sats!r}")
    if n_sats < 5:
        raise GeometryError(f"n_sats must be >= 5, got {n_sats}")
    if not 0.0 <= elevation_mask_deg < 90.0:
        raise GeometryError(
            f"elevation mask must lie in [0, 90) degrees, got {elevation_mask_deg}"
        )
    # A NaN fails the comparison, so it is refused too.
    if not EARTH_RADIUS_M < orbit_radius_m <= MAX_LENGTH_M:
        raise GeometryError(
            f"orbit radius {orbit_radius_m} m must be finite, exceed the Earth "
            f"radius {EARTH_RADIUS_M} m and be at most {MAX_LENGTH_M:.4g} m"
        )

    rng = Normals(seed)
    up = _unit(np.array(rng.draw(3)))
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
        pts = np.array(rng.draw(3 * _DRAW_BATCH)).reshape(_DRAW_BATCH, 3)
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


def sample_pseudoranges(
    d: np.ndarray,
    nm: NoiseModel,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> PseudorangeSample:
    """Draw one noisy pseudorange vector: rho = d + clock bias + v.

    ``v`` is i.i.d. N(0, sigma_v^2); the draw is deterministic per seed.
    """
    d = checked_ranges(d, len(d))
    rng = np.random.default_rng(seed)
    v = rng.normal(0.0, nm.sigma_v, size=d.shape[0])
    return PseudorangeSample(rho=d + nm.bias_b + v, d_true=d, v=v)


def nominal_pseudoranges(d: np.ndarray, nm: NoiseModel) -> PseudorangeSample:
    """The exact noiseless sample rho = d + clock bias (v = 0)."""
    d = checked_ranges(d, len(d))
    return PseudorangeSample(rho=d + nm.bias_b, d_true=d, v=np.zeros_like(d))
