"""Scenario generation, pseudorange sampling, and scenario-file parsing."""

import math

import numpy as np
import pytest

from edmdetect import (
    ConfigError,
    ConstellationSamplingError,
    GeometryError,
    NoiseModel,
    ScenarioGeometry,
    elevation_angles,
    generate_constellation,
    nominal_pseudoranges,
    sample_pseudoranges,
    true_ranges,
)
from edmdetect.geometry import (
    EARTH_RADIUS_M,
    _ranges,
    config_value,
    parse_geometry,
    parse_noise,
    read_mapping,
)


def elevation_oracle(receiver, satellite):
    """Independent elevation recomputation: 90 deg minus the zenith angle."""
    up = receiver / math.sqrt(sum(c * c for c in receiver))
    los = satellite - receiver
    cos_zenith = float(np.dot(up, los) / np.linalg.norm(los))
    return 90.0 - math.degrees(math.acos(cos_zenith))


class TestGenerateConstellation:
    def test_respects_elevation_mask(self):
        g = generate_constellation(12, 10.0, 26_560_000.0, seed=1)
        assert g.m == 12
        for sat in g.satellites:
            assert elevation_oracle(g.receiver, sat) >= 10.0

    def test_receiver_on_earth_surface(self):
        g = generate_constellation(12, 10.0, seed=1)
        assert np.linalg.norm(g.receiver) == pytest.approx(EARTH_RADIUS_M, rel=1e-12)

    def test_satellites_on_orbit_sphere(self):
        g = generate_constellation(8, 15.0, 26_560_000.0, seed=3)
        radii = np.linalg.norm(g.satellites, axis=1)
        np.testing.assert_allclose(radii, 26_560_000.0, rtol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = generate_constellation(12, 10.0, seed=7)
        b = generate_constellation(12, 10.0, seed=7)
        assert np.array_equal(a.receiver, b.receiver)
        assert np.array_equal(a.satellites, b.satellites)

    def test_different_seeds_differ(self):
        a = generate_constellation(12, 10.0, seed=7)
        b = generate_constellation(12, 10.0, seed=8)
        assert not np.array_equal(a.satellites, b.satellites)

    def test_impossible_mask_hits_rejection_cap(self):
        with pytest.raises(ConstellationSamplingError):
            generate_constellation(12, 89.9, seed=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sats": 4},
            {"n_sats": 12, "elevation_mask_deg": 95.0},
            {"n_sats": 12, "elevation_mask_deg": -1.0},
            {"n_sats": 12, "orbit_radius_m": 1_000.0},
        ],
    )
    def test_precondition_violations(self, kwargs):
        with pytest.raises(GeometryError):
            generate_constellation(**kwargs)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_orbit_radius_refused(self, radius):
        # ConstellationSamplingError is a GeometryError too; the match tells
        # the radius check from a rejection loop that placed no satellite.
        with pytest.raises(GeometryError, match="orbit radius"):
            generate_constellation(12, 10.0, orbit_radius_m=radius, seed=1)

    def test_elevation_angles_match_oracle(self):
        g = generate_constellation(10, 20.0, seed=5)
        expected = [elevation_oracle(g.receiver, s) for s in g.satellites]
        np.testing.assert_allclose(elevation_angles(g), expected, atol=1e-9)


class TestScenarioGeometryInvariants:
    def test_rejects_too_few_satellites(self):
        sats = np.array([[1e7, 0, 0], [0, 1e7, 0], [0, 0, 1e7], [1e7, 1e7, 0]])
        with pytest.raises(GeometryError, match="at least 5"):
            ScenarioGeometry(receiver=np.zeros(3), satellites=sats)

    def test_rejects_coincident_satellites(self):
        g = generate_constellation(6, 10.0, seed=2)
        sats = g.satellites.copy()
        sats[3] = sats[0] + np.array([0.5, 0.0, 0.0])  # 0.5 m apart
        with pytest.raises(GeometryError, match="apart"):
            ScenarioGeometry(receiver=g.receiver, satellites=sats)

    def test_rejects_receiver_coincident_with_satellite(self):
        g = generate_constellation(6, 10.0, seed=2)
        with pytest.raises(GeometryError):
            ScenarioGeometry(receiver=g.satellites[0], satellites=g.satellites)

    def test_rejects_coplanar_point_set(self):
        # Receiver and all satellites in the z = 0 plane.
        ang = np.linspace(0.0, 2 * np.pi, 7)[:-1]
        sats = np.column_stack(
            [2.6e7 * np.cos(ang), 2.6e7 * np.sin(ang), np.zeros_like(ang)]
        )
        with pytest.raises(GeometryError, match="coplanar"):
            ScenarioGeometry(receiver=np.array([EARTH_RADIUS_M, 0.0, 0.0]), satellites=sats)

    def test_arrays_are_frozen(self):
        g = generate_constellation(6, 10.0, seed=2)
        with pytest.raises(ValueError):
            g.satellites[0, 0] = 0.0


class TestTrueRanges:
    def test_3_4_5_triangle(self):
        d = _ranges(np.zeros(3), np.array([[3.0, 4.0, 0.0]]))
        assert d[0] == pytest.approx(5.0, abs=0.0)

    def test_coincident_point_gives_zero(self):
        # Flagged upstream by the geometry invariant; the range math itself
        # returns 0 here.
        p = np.array([1.0, 2.0, 3.0])
        assert _ranges(p, p[None, :])[0] == 0.0

    def test_matches_bruteforce_loop(self, scenario12):
        d = true_ranges(scenario12)
        for i in range(scenario12.m):
            expected = math.sqrt(
                sum((scenario12.receiver[k] - scenario12.satellites[i, k]) ** 2 for k in range(3))
            )
            assert d[i] == pytest.approx(expected, rel=1e-15)
        assert np.all(d > 0)


class TestNoiseModel:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_v=0.0)
        with pytest.raises(ValueError):
            NoiseModel(sigma_v=-1.0)


class TestSamplePseudoranges:
    def test_vanishing_noise_limit(self, scenario12):
        d = true_ranges(scenario12)
        nm = NoiseModel(sigma_v=1e-12, bias_b=1.0e5)
        s = sample_pseudoranges(d, nm, seed=0)
        np.testing.assert_allclose(s.rho, d + 1.0e5, atol=1e-9)

    def test_deterministic_per_seed(self, scenario12):
        d = true_ranges(scenario12)
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        a = sample_pseudoranges(d, nm, seed=123)
        b = sample_pseudoranges(d, nm, seed=123)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.v, b.v)

    def test_reconstruction_to_machine_precision(self, scenario12):
        d = true_ranges(scenario12)
        nm = NoiseModel(sigma_v=3.0, bias_b=1.2e5)
        s = sample_pseudoranges(d, nm, seed=9)
        np.testing.assert_allclose(s.rho - s.v - s.b_effective, d, rtol=1e-12)

    def test_empirical_std_of_generator(self, scenario12):
        # 10,000 draws at sigma_v = 3 m: per-channel std must sit in [2.9, 3.1].
        d = true_ranges(scenario12)
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        vs = np.vstack(
            [sample_pseudoranges(d, nm, seed=np.random.SeedSequence([77, t])).v
             for t in range(10_000)]
        )
        stds = vs.std(axis=0, ddof=1)
        assert np.all(stds >= 2.9) and np.all(stds <= 3.1)

    def test_rejects_nonpositive_ranges(self):
        nm = NoiseModel(sigma_v=1.0, bias_b=0.0)
        with pytest.raises(GeometryError):
            sample_pseudoranges(np.array([1.0, -2.0, 3.0, 4.0, 5.0]), nm, seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_ranges(self, bad):
        # A NaN passes a plain d <= 0 test; both samplers must refuse it.
        nm = NoiseModel(sigma_v=1.0, bias_b=0.0)
        d = np.array([bad, 2e7, 2.1e7, 2.2e7, 2.3e7])
        with pytest.raises(GeometryError, match="positive and finite"):
            nominal_pseudoranges(d, nm)
        with pytest.raises(GeometryError, match="positive and finite"):
            sample_pseudoranges(d, nm, seed=0)

    def test_nominal_sample_is_exact(self, scenario12):
        d = true_ranges(scenario12)
        nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
        s = nominal_pseudoranges(d, nm)
        assert np.array_equal(s.rho, d + 1.0e5)
        assert np.all(s.v == 0.0)


def load_scenario(path):
    """(geometry, noise model) of a scenario file, read the way the CLI reads it."""
    doc = read_mapping(path)
    return parse_geometry(doc).build(), parse_noise(doc)


class TestScenarioFiles:
    def test_explicit_scenario_roundtrip(self, tmp_path, scenario12):
        path = tmp_path / "scenario.yaml"
        lines = [
            "receiver: [%r, %r, %r]" % tuple(map(float, scenario12.receiver)),
            "satellites:",
        ]
        lines += [
            "  - [%r, %r, %r]" % tuple(map(float, s)) for s in scenario12.satellites
        ]
        lines += ["sigma_v: 2.5", "bias_b: 6.0e4"]
        path.write_text("\n".join(lines) + "\n")
        geom, nm = load_scenario(path)
        np.testing.assert_allclose(geom.satellites, scenario12.satellites, rtol=1e-15)
        assert nm.sigma_v == 2.5
        assert nm.bias_b == 6.0e4

    def test_constellation_scenario(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "constellation: {n_sats: 8, elevation_mask_deg: 15.0}\n"
            "seed: 4\nsigma_v: 3.0\n"
        )
        geom, nm = load_scenario(path)
        expected = generate_constellation(8, 15.0, seed=4)
        assert np.array_equal(geom.satellites, expected.satellites)
        assert nm.bias_b == 1.0e5  # default

    @pytest.mark.parametrize(
        "doc",
        [
            {"receiver": [0, 0, 0]},
            {"receiver": [0, 0, 0], "satellites": [[1, 1, 1]], "constellation": {}},
            {"constellation": {"bogus_key": 1}},
            [1, 2, 3],
            {"seed": -1},
            {"seed": 1.5},
            {"constellation": {"n_sats": 12.5}},
        ],
    )
    def test_invalid_scenario_mappings(self, doc):
        with pytest.raises(ConfigError):
            parse_geometry(doc)

    @pytest.mark.parametrize("text", ["1.0e5", "1.0e+5", "100000"])
    def test_integral_config_values_convert_exactly(self, tmp_path, text):
        # YAML 1.1 reads 1.0e5 as a string and 1.0e+5 as a float.
        path = tmp_path / "cfg.yaml"
        path.write_text(f"trials: {text}\n")
        assert config_value(read_mapping(path), "trials", int) == 100_000

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_mapping(tmp_path / "nope.yaml")

    def test_invalid_geometry_in_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "receiver: [0.0, 0.0, 0.0]\n"
            "satellites:\n"
            "  - [1.0e7, 0.0, 0.0]\n"
            "  - [0.0, 1.0e7, 0.0]\n"
            "  - [0.0, 0.0, 1.0e7]\n"
            "  - [1.0e7, 1.0e7, 0.0]\n"
        )
        with pytest.raises(GeometryError):
            load_scenario(path)
