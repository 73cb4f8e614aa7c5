"""The stdlib normal stream against numpy's default_rng, bit for bit."""

import numpy as np
import pytest

from edmdetect import _normal, generate_constellation
from edmdetect._normal import Normals
from edmdetect.geometry import EARTH_RADIUS_M, ScenarioGeometry

# 2**130 + 17 has five 32-bit words, one more than SeedSequence's pool holds.
SEEDS = [*range(300), 2**32, 2**64 + 5, 2**130 + 17]


def test_draws_equal_numpys_default_rng_bit_for_bit(monkeypatch):
    wedge_tests = 0
    exp = _normal.exp

    def counting_exp(x):
        nonlocal wedge_tests
        wedge_tests += 1
        return exp(x)

    # exp is called only by the wedge test of a layer 1..255 draw.
    monkeypatch.setattr(_normal, "exp", counting_exp)
    tail = 0
    for seed in SEEDS:
        ours = np.array(Normals(seed).draw(3000))
        theirs = np.random.default_rng(seed).normal(size=3000)
        assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), seed
        tail += int(np.sum(np.abs(ours) > 3.6541528853610088))
    assert wedge_tests > 0 and tail > 0


def test_successive_draws_continue_one_stream():
    rng, ref = Normals(7), np.random.default_rng(7)
    for n in (3, 768, 1, 768):
        assert np.array_equal(np.array(rng.draw(n)).view(np.uint64),
                              ref.normal(size=n).view(np.uint64))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.0, TypeError), ("1", TypeError)])
def test_seed_contract_is_seedsequences(seed, error):
    with pytest.raises(error):
        np.random.SeedSequence(seed)
    with pytest.raises(error):
        Normals(seed)


def test_integer_like_and_fresh_seeds():
    assert Normals(np.uint64(2**63 + 1)).draw(5) == Normals(2**63 + 1).draw(5)
    assert Normals(None).draw(5) != Normals(None).draw(5)


def default_rng_constellation(n_sats, mask_deg, seed, orbit_radius_m=26_560_000.0):
    """The constellation loop as written against np.random.default_rng."""
    rng = np.random.default_rng(seed)
    up = rng.normal(size=3)
    up /= np.linalg.norm(up)
    receiver = EARTH_RADIUS_M * up
    sin_mask = np.sin(np.radians(mask_deg))
    kept = []
    while len(kept) < n_sats:
        pts = rng.normal(size=(256, 3))
        pts *= orbit_radius_m / np.linalg.norm(pts, axis=1)[:, None]
        los = pts - receiver[None, :]
        sin_el = (los @ up) / np.linalg.norm(los, axis=1)
        kept.extend(pts[sin_el >= sin_mask][: n_sats - len(kept)])
    return ScenarioGeometry(receiver=receiver, satellites=np.array(kept))


@pytest.mark.parametrize("m, mask", [(5, 10.0), (12, 10.0), (30, 5.0), (60, 5.0), (5, 88.0)])
@pytest.mark.parametrize("seed", range(1, 6))
def test_constellation_equals_the_default_rng_loop(m, mask, seed):
    ours = generate_constellation(m, mask, seed=seed)
    ref = default_rng_constellation(m, mask, seed)
    assert np.array_equal(ours.receiver, ref.receiver)
    assert np.array_equal(ours.satellites, ref.satellites)
