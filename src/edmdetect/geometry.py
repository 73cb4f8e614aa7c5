"""Receiver/satellite scenarios, the noise model and the nominal pseudoranges.

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
# generate_constellation refuses a mask whose draw cap reaches n_sats less often.
_UNREACHABLE_P = 1e-12


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
    """Measured pseudoranges rho, one per satellite, meters."""

    rho: np.ndarray


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
        requested satellite count), or, before any candidate is drawn, if
        the cap would reach ``n_sats`` visible satellites with probability
        below 1e-12.
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
    # The loop draws whole batches until it holds n_sats or reaches the cap.
    # A candidate is visible within central angle theta of the receiver's
    # zenith, a share (1 - cos theta) / 2 of the orbit sphere, so the cap
    # holds Binomial(cap, share) visible ones, mean mu; for mu < n_sats,
    # P(at least n_sats) <= e^-mu (e mu / n_sats)^n_sats (Chernoff).
    cap = _DRAW_BATCH * -(-max(200_000, 20_000 * n_sats) // _DRAW_BATCH)
    e = math.radians(elevation_mask_deg)
    theta = math.acos(EARTH_RADIUS_M * math.cos(e) / orbit_radius_m) - e
    mu = cap * (1.0 - math.cos(theta)) / 2.0
    if mu < n_sats and mu * math.exp(1.0 - mu / n_sats) < n_sats * _UNREACHABLE_P ** (1 / n_sats):
        raise ConstellationSamplingError(
            f"elevation mask {elevation_mask_deg} deg is too restrictive: {cap} draws "
            f"expect {mu:.3g} visible satellites, and reaching {n_sats} has "
            f"probability below {_UNREACHABLE_P:g}")

    up = np.array(rng.draw(3))
    up /= np.linalg.norm(up)
    receiver = EARTH_RADIUS_M * up
    sin_mask = np.sin(e)

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
        kept.extend(pts[sin_el >= sin_mask][: n_sats - len(kept)])
    return ScenarioGeometry(receiver=receiver, satellites=np.array(kept))


def true_ranges(g: ScenarioGeometry) -> np.ndarray:
    """Euclidean distance from the receiver to each satellite, meters."""
    return np.linalg.norm(g.satellites - g.receiver[None, :], axis=1)


def nominal_pseudoranges(d: np.ndarray, nm: NoiseModel) -> PseudorangeSample:
    """The exact noiseless sample rho = d + clock bias."""
    d = checked_ranges(d, len(d))
    return PseudorangeSample(rho=d + nm.bias_b)
