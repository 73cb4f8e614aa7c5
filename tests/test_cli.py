"""Command-line surface: flags, files, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edmdetect
from edmdetect import _floatfmt
from edmdetect import (
    DegenerateEigenvalueError,
    GeometryError,
    NoiseModel,
    ScenarioGeometry,
    SpectrumError,
    centered_gram,
    centered_gram_eigvals,
    generate_constellation,
    predict_q_distribution,
    run_trials,
    true_ranges,
)
from edmdetect.cli import (
    _KEYS,
    _POINT_KEYS,
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    _build_parser,
    main,
    read_mapping,
)
from edmdetect.edm import MAX_LENGTH_M
from edmdetect.perturbation import GAP_TOL_REL_DEFAULT

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return main(argv)


def fresh_env():
    """The environment for a fresh interpreter that imports this checkout's edmdetect."""
    src = str(Path(edmdetect.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def nonzero_count(w):
    """Number of eigenvalues above the prediction's gap floor, as the audit counts."""
    w = np.abs(w)
    return int(np.sum(w > GAP_TOL_REL_DEFAULT * w.max()))


class TestSimulate:
    def test_small_run_emits_three_files_and_verdict(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["simulate", "--trials", "300", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("trials.csv", "summary.json", "histogram.csv"):
            assert (out / name).is_file()
        verdict = capsys.readouterr().out.strip().splitlines()
        assert len(verdict) == 1
        assert "predicted mu=" in verdict[0] and "false-alarm" in verdict[0]

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        code = run(["simulate", "--trials", "0", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "trials" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--trials", "250", "--seed", "9",
                        "--out", str(out)]) == EXIT_OK
        for name in ("trials.csv", "summary.json", "histogram.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_summary_respects_flag_over_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("trials: 100\nmaster_seed: 4\nsigma_v: 2.0\n")
        out = tmp_path / "run"
        code = run(["simulate", "--config", str(cfg), "--trials", "60",
                    "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert doc["n_trials"] == 60
        assert doc["config"]["sigma_v"] == 2.0  # file value survives
        assert doc["config"]["master_seed"] == 4

    def test_summary_reports_both_orderings(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--trials", "200", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        # Magnitude is the one ranking, so no output names it.
        for part in (doc, doc["predicted"], doc["config"]):
            assert "ordering" not in part
        for name in ("trials.csv", "histogram.csv"):
            assert "ordering" not in (out / name).read_text()
        assert "q_alt" not in doc


class TestPredict:
    def test_json_schema_and_empty_warnings(self, tmp_path):
        out = tmp_path / "pred"
        assert run(["predict", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "prediction.json").read_text())
        required = {
            "mu_num", "sigma_num", "mu_den", "sigma_den", "mu_q", "sigma_q",
            "covariance_num_den", "validity_warnings", "thresholds",
        }
        assert required <= set(doc)
        assert doc["validity_warnings"] == []
        thr = doc["thresholds"]
        assert thr["two_sided_lo"] < doc["mu_q"] < thr["two_sided_hi"]
        assert thr["degenerate"] is False

    def test_zero_bias_cites_eigenvector_instability(self, tmp_path, capsys):
        code = run(["predict", "--bias", "0", "--out", str(tmp_path / "p")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "eigenvector" in err and "bias" in err

    def test_sigma_doubling_doubles_sigma_q(self, tmp_path):
        doc = {}
        for tag, sigma in (("a", "3.0"), ("b", "6.0")):
            out = tmp_path / tag
            assert run(["predict", "--sigma", sigma, "--out", str(out)]) == EXIT_OK
            doc[tag] = json.loads((out / "prediction.json").read_text())
        assert doc["b"]["sigma_q"] == pytest.approx(2.0 * doc["a"]["sigma_q"], rel=1e-12)
        assert doc["b"]["mu_q"] == doc["a"]["mu_q"]

    def test_negative_exponent_bias_in_the_equals_form(self, tmp_path):
        # argparse reads "-1e5" after a space as a flag, so the README gives
        # --bias=-1e5; it writes what --bias -100000 writes.
        written = []
        for tag, argv in (("equals", ["--bias=-1e5"]), ("space", ["--bias", "-100000"])):
            out = tmp_path / tag
            assert run(["predict", *argv, "--out", str(out)]) == EXIT_OK
            written.append((out / "prediction.json").read_bytes())
        assert written[0] == written[1]


class TestAudit:
    def test_default_scenario_passes_all_checks(self, tmp_path, capsys):
        out = tmp_path / "audit"
        assert run(["audit", "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)
        doc = json.loads((out / "audit.json").read_text())
        assert doc["passed"] is True
        assert [check["name"] for check in doc["checks"]] == [
            "finite-difference max relative discrepancy (h=0.001 m)",
            "rank collapse: non-zero eigenvalues, zero bias, no noise",
            "bias activation: non-zero eigenvalues with bias, no noise",
        ]

    @pytest.mark.parametrize("m, mask", [(5, 10.0), (12, 10.0), (30, 5.0), (60, 5.0)])
    def test_rank_rows_count_like_the_dense_spectrum(self, m, mask):
        # The rank rows count on the trial kernel; the dense eigensolve of
        # centered_gram is the reference, under the same floor.
        g = generate_constellation(m, mask, seed=1)
        d = true_ranges(g)
        for bias, rank in ((0.0, 3), (1e3, 5), (1e5, 5)):
            rho = d + bias
            dense = nonzero_count(np.linalg.eigvalsh(centered_gram(g.satellites, rho)))
            assert nonzero_count(centered_gram_eigvals(g.satellites, rho)) == dense, (m, bias)
            assert dense == rank, (m, bias)

    def test_small_constellation_activation_passes_where_predict_answers(self, tmp_path):
        # Under a 1e-9 floor this scenario's lambda5 counted as zero, so the
        # audit failed a scenario that `predict` answers.
        cfg = tmp_path / "eight.yaml"
        cfg.write_text("constellation: {n_sats: 8}\nseed: 2\n")
        out = tmp_path / "a"
        assert run(["audit", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        checks = json.loads((out / "audit.json").read_text())["checks"]
        assert checks[2]["name"].startswith("bias activation") and checks[2]["value"] == 5.0

    def test_rank_five_exactly_where_predict_answers(self):
        # The bias-activation count and the prediction's gap guard must draw
        # the same line; with no bias the count is the geometry's rank, 3.
        for m in (5, 6, 8, 12, 20, 30, 60):
            for seed in (1, 2, 3):
                g = generate_constellation(m, seed=seed)
                d = true_ranges(g)
                assert nonzero_count(centered_gram_eigvals(g.satellites, d)) == 3, (m, seed)
                for bias in (1e5, 1e3, 1e2, 30.0, 10.0, 3.0):
                    count = nonzero_count(centered_gram_eigvals(g.satellites, d + bias))
                    try:
                        predict_q_distribution(g, NoiseModel(sigma_v=3.0, bias_b=bias))
                    except DegenerateEigenvalueError:
                        assert count == 4, (m, seed, bias)
                    else:
                        assert count == 5, (m, seed, bias)

    def test_zero_bias_refused_like_predict(self, tmp_path, capsys):
        code = run(["audit", "--bias", "0", "--out", str(tmp_path / "a")])
        assert code == EXIT_NUMERICAL
        assert "clock bias is zero" in capsys.readouterr().err

    def test_four_satellite_scenario_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "four.yaml"
        cfg.write_text(
            "receiver: [6371000.0, 0.0, 0.0]\n"
            "satellites:\n"
            "  - [26000000.0, 0.0, 0.0]\n"
            "  - [0.0, 26000000.0, 0.0]\n"
            "  - [0.0, 0.0, 26000000.0]\n"
            "  - [18000000.0, 18000000.0, 0.0]\n"
        )
        code = run(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "at least 5" in capsys.readouterr().err

    def test_coplanar_scenario_reported(self, tmp_path, capsys):
        ang = np.linspace(0.0, 2 * np.pi, 7)[:-1]
        lines = ["receiver: [6371000.0, 0.0, 0.0]", "satellites:"]
        for a in ang:
            lines.append(
                f"  - [{float(2.6e7 * np.cos(a))!r}, {float(2.6e7 * np.sin(a))!r}, 0.0]"
            )
        cfg = tmp_path / "coplanar.yaml"
        cfg.write_text("\n".join(lines) + "\n")
        code = run(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "coplanar" in capsys.readouterr().err


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = run(["predict", "--config", str(tmp_path / "nope.yaml"),
                    "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_bad_pfa(self, tmp_path, capsys):
        code = run(["predict", "--pfa", "0.7", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "pfa" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_scenario_config_drives_simulation(self, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(
            "constellation: {n_sats: 8, elevation_mask_deg: 15.0}\n"
            "seed: 4\nsigma_v: 3.0\nbias_b: 1.0e5\ntrials: 120\n"
        )
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert doc["n_trials"] == 120

    @pytest.mark.parametrize(
        "argv, config_text",
        [
            (["simulate", "--trials", "1"], None),
            (["predict", "--sigma", "-1"], None),
            (["predict", "--sigma", "nan"], None),
            (["predict", "--sigma", "inf"], None),
            (["predict", "--bias", "nan"], None),
            (["predict", "--bias", "inf"], None),
            (["audit"], "fd_step: 1.0e-3\n"),
            (["simulate"], "workers: 2\n"),
            (["predict"], "constellation: {n_sats: abc}\n"),
            (["predict"], "sigma_v: foo\n"),
            (["predict"], "trials: many\n"),
            (["predict"], "constellation: 12\n"),
            (["predict"], "receiver: [1.0, 2.0]\nsatellites: [[1.0, 2.0, 3.0], [4.0]]\n"),
            (["predict"], "sigmav: 10\n"),
            (["predict"], "receiver: [1.0, 2.0, 3.0]\nsatellites: [[4.0, 5.0, 6.0]]\nseed: 3\n"),
            (["predict"], "sigma_v: [1, 2\n"),
            (["predict"], "sigma_v: \x07\n"),
            (["predict"], "seed: -1\n"),
            (["simulate"], "trials: 2.9\n"),
            (["predict"], "seed: 1.5\n"),
            (["predict", "--pfa", "5e-324"], None),
            (["simulate", "--pfa", "5e-324"], None),
            # Past numpy's largest dimension: refused before any allocation.
            (["simulate", "--trials", "10000000000000000000"], None),
        ],
    )
    def test_invalid_values_are_one_line_config_errors(self, tmp_path, capsys, argv, config_text):
        if config_text is not None:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(config_text)
            argv = argv + ["--config", str(cfg)]
        assert run(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error (config): ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config_text, key",
        [
            ("master_seed: yes\n", "master_seed"),
            ("sigma_v: true\n", "sigma_v"),
            ("out: [1]\n", "out"),
        ],
    )
    def test_yaml_values_of_the_wrong_type_are_refused(
        self, tmp_path, monkeypatch, capsys, config_text, key
    ):
        # YAML reads yes/true as booleans and [1] as a list; none of them
        # may run as seed 1, sigma 1 m or a directory named "[1]".
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.yaml").write_text(config_text)
        assert run(["predict", "--config", "cfg.yaml"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error (config): invalid value for {key}: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_unallocatable_trial_count_is_one_line_memory_error(self, tmp_path, capsys):
        # 711 PiB for the q column alone: beyond a 47-bit address space, so
        # the allocation fails without touching memory.
        argv = ["simulate", "--trials", "100000000000000000", "--out", str(tmp_path / "o")]
        assert run(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error (memory): ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_provenance_records_the_geometry_actually_used(self, tmp_path):
        sats = generate_constellation(7, seed=3)
        explicit = tmp_path / "explicit.yaml"
        explicit.write_text(
            f"receiver: {sats.receiver.tolist()}\nsatellites: {sats.satellites.tolist()}\n"
        )
        generated = tmp_path / "generated.yaml"
        generated.write_text("constellation: {n_sats: 7, elevation_mask_deg: 5.0}\nseed: 3\n")
        docs = {}
        for cfg in (explicit, generated):
            out = tmp_path / cfg.stem
            assert run(["predict", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            docs[cfg.stem] = json.loads((out / "prediction.json").read_text())["config"]
        generator_keys = {"elevation_mask_deg", "orbit_radius_m", "scenario_seed"}
        assert docs["explicit"]["n_sats"] == 7
        assert docs["explicit"]["scenario_file"] == str(explicit)
        assert not generator_keys & set(docs["explicit"])
        assert docs["generated"]["n_sats"] == 7
        assert docs["generated"]["elevation_mask_deg"] == 5.0
        assert docs["generated"]["scenario_seed"] == 3
        assert generator_keys <= set(docs["generated"])

    @pytest.mark.parametrize("flag, key", [("--workers", "workers"), ("--fd-step", "fd_step")])
    def test_removed_knobs_exit_two(self, tmp_path, capsys, flag, key):
        with pytest.raises(SystemExit) as exc:
            run(["audit", flag, "1"])
        assert exc.value.code == EXIT_CONFIG
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"{key}: 1\n")
        assert run(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--inflate-bias", "1"], ["--ordering", "magnitude"]])
    def test_removed_statistic_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(["predict", *argv])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["bias_inflation: 0.0", "ordering: magnitude"])
    def test_removed_statistic_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(line + "\n")
        assert run(["predict", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        key = line.split(":")[0]
        assert err == f"error (config): unknown config keys: ['{key}']\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "predict", "audit"])
    def test_non_positive_pseudoranges_are_geometry_errors(self, tmp_path, capsys, command):
        # A clock bias below minus the shortest range makes pseudoranges negative.
        assert run([command, "--bias=-3e7", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error (geometry): ") and err.count("\n") == 1
        assert "positive" in err
        assert not (tmp_path / "o").exists()

    def test_negative_noise_draw_names_the_value(self, tmp_path):
        # sigma_v = 1e8 m draws a pseudorange below zero at the default seed:
        # the error names the smallest value, not the overflow bound.
        proc = subprocess.run(
            [sys.executable, "-m", "edmdetect.cli", "simulate", "--sigma", "1e8",
             "--trials", "10", "--out", str(tmp_path / "o")],
            env=fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error (geometry): ") and proc.stderr.count("\n") == 1
        assert re.search(r"positive and finite; the smallest is -\d", proc.stderr)
        assert "squares" not in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("radius", [".inf", ".nan"])
    def test_non_finite_orbit_radius_is_one_line_geometry_error(self, tmp_path, radius):
        # A fresh interpreter, so that any RuntimeWarning reaches stderr too.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"constellation: {{orbit_radius_m: {radius}}}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "edmdetect.cli", "predict", "--config", str(cfg),
             "--out", str(tmp_path / "o")],
            env=fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error (geometry): ") and proc.stderr.count("\n") == 1
        assert "orbit radius" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["predict", "simulate"])
    @pytest.mark.parametrize("flag, value, code, kind, words", [
        ("--sigma", "1e160", EXIT_CONFIG, "config", "sigma_v"),
        ("--bias", "1e200", EXIT_CONFIG, "config", "bias_b"),
        ("--bias", "-1e63", EXIT_CONFIG, "config", "bias_b"),
        ("--sigma", "1e150", EXIT_CONFIG, "config", "sigma_v"),
        *(
            pytest.param(
                "--config", f"constellation: {{n_sats: 8, orbit_radius_m: {radius}}}",
                EXIT_CONFIG, "geometry", "orbit radius", id=f"orbit-radius-{radius}",
            )
            for radius in ("1.0e154", "1.0e160")
        ),
        pytest.param(
            "--config", "{receiver: [1.0e200, 0, 0], satellites: [[0, 1.0e200, 0], "
            "[0, 0, 1.0e200], [-1.0e200, 0, 0], [0, -1.0e200, 0], [0, 0, -1.0e200]]}",
            EXIT_CONFIG, "geometry", "coordinates at most", id="points-at-1e200",
        ),
        pytest.param(
            "--config", "{receiver: [1.5e-19, 0, 0], satellites: [[0, 1.5e-19, 0], "
            "[0, 0, 1.5e-19], [-1.5e-19, 0, 0], [0, -1.5e-19, 0], [0, 0, -1.5e-19]]}",
            EXIT_CONFIG, "geometry", "below the smallest supported 2.168e-19 m",
            id="points-below-min-length",
        ),
    ])
    def test_overflowing_noise_or_bias_is_one_line_typed_error(
        self, tmp_path, command, flag, value, code, kind, words
    ):
        # sigma_v, |bias_b|, the orbit radius or a coordinate above
        # edm.MAX_LENGTH_M, or a length scale below edm.MIN_LENGTH_M: a typed
        # error (exit 2), and no traceback or RuntimeWarning on stderr (a
        # fresh interpreter shows both). Config values are written to a file;
        # --flag=value lets a value start with a minus sign.
        if flag == "--config":
            (tmp_path / "cfg.yaml").write_text(value + "\n")
            value = str(tmp_path / "cfg.yaml")
        proc = subprocess.run(
            [sys.executable, "-m", "edmdetect.cli", command, f"{flag}={value}", "--trials", "10",
             "--out", str(tmp_path / "o")],
            env=fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code
        assert proc.stderr.startswith(f"error ({kind}): ") and proc.stderr.count("\n") == 1
        assert words in proc.stderr
        assert not (tmp_path / "o").exists()

    # The errors main maps to exit 2 or 3 (ValueError is NoiseModel's, which
    # resolve_config reports as a config error).
    TYPED = (GeometryError, DegenerateEigenvalueError, SpectrumError, ZeroDivisionError)
    SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -1.0, 5e-324, 1e-300, 1e63, 1e100, 1e155, 1e300]

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        m=st.integers(5, 9),
        # Each input is usable about half the time, so most examples reach the calls.
        # 2^-220 puts the length scale below edm.MIN_LENGTH_M.
        scale=st.one_of(st.just(1.0), st.sampled_from(
            [2.0**-220, 2.0**-100, 2.0**-40, 1e-3, 1e20, 1e62, 1e63, 1e100, 1e200])),
        flatten=st.one_of(st.none(), st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 30.0, 1e3])),
        position=st.one_of(st.none(), st.sampled_from(SPECIAL)),
        pseudorange=st.one_of(st.none(), st.sampled_from(SPECIAL)),
        sigma=st.one_of(st.just(3.0),
                        st.sampled_from([300.0, 1e60, 1e150, MAX_LENGTH_M, *SPECIAL[:7]])),
        bias=st.one_of(st.just(1e5), st.sampled_from([1.0, -1e5, 1e100, 1.7e308, *SPECIAL[:7]])),
    )
    def test_bad_inputs_give_finite_values_or_typed_errors(
        self, m, scale, flatten, position, pseudorange, sigma, bias
    ):
        # NaN, infinite, zero, negative, tiny and overflowing positions,
        # pseudoranges, sigma_v and biases, and near-coplanar satellite sets
        # (every point moved to within ``flatten`` of the plane z = R_E): each
        # call returns finite values only or raises an error main maps to
        # exit 2 or 3. A RuntimeWarning fails the test (pyproject).
        g = generate_constellation(m, 10.0, seed=m)
        pts = np.vstack([g.receiver, g.satellites])
        if flatten is not None:
            pts[:, 2] = 6.371e6 + flatten * np.sign(pts[:, 2] - 6.371e6)
        pts *= scale
        if position is not None:
            pts[m // 2, 1] = position
        try:
            nm = NoiseModel(sigma, bias)
        except ValueError:
            nm = None
        try:
            geom = ScenarioGeometry(pts[0], pts[1:])
        except GeometryError:
            return
        rho = true_ranges(geom) + (bias if np.isfinite(bias) else 1e5)
        if pseudorange is not None:
            rho[0] = pseudorange

        def predicted():
            dist = asdict(predict_q_distribution(geom, nm))
            return [value for value in dist.values() if isinstance(value, float)]

        def trials():
            batch = run_trials(geom, nm, 5, 1)
            return np.append(batch.q, batch.lambdas)

        calls = [lambda: centered_gram_eigvals(geom.satellites, rho)]
        if nm is not None:
            calls += [predicted, trials]
        for call in calls:
            try:
                values = call()
            except self.TYPED:
                continue
            assert np.all(np.isfinite(values))

    def test_degenerate_summary_has_no_nan(self, tmp_path):
        # sigma_v = 1e-300 leaves every eigenvalue column constant up to
        # rounding; the correlation must still be plain JSON numbers.
        out = tmp_path / "o"
        argv = ["simulate", "--sigma", "1e-300", "--trials", "10", "--out", str(out)]
        assert run(argv) == EXIT_OK

        def refuse(name):
            raise ValueError(f"summary.json holds {name}")

        doc = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert np.all(np.isfinite(doc["correlation"]["matrix"]))

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_AUDIT}) == 4


def vertical_dop(receiver, satellites):
    """VDOP of the unit lines of sight from the receiver, up along the receiver's radius."""
    receiver, satellites = np.asarray(receiver), np.asarray(satellites)
    los = satellites - receiver
    los /= np.linalg.norm(los, axis=1)[:, None]
    up = receiver / np.linalg.norm(receiver)
    design = np.column_stack([-los, np.ones(len(los))])
    return float(np.sqrt(up @ np.linalg.inv(design.T @ design)[:3, :3] @ up))


def test_ring_scenarios_match_their_manifest(rings, tmp_path):
    # Every checked-in ring against its manifest row: predict's exit code,
    # sigma_q within 1e-6 relative (room for a last-digit move of the
    # prediction), and the VDOP recomputed from the file's positions.
    for path, row in rings:
        out = tmp_path / path.stem
        assert run(["predict", "--config", str(path), "--out", str(out)]) == row["predict_exit"]
        if row["sigma_q"] is not None:
            doc = json.loads((out / "prediction.json").read_text())
            assert doc["sigma_q"] == pytest.approx(row["sigma_q"], rel=1e-6)
        doc = read_mapping(path)
        assert vertical_dop(doc["receiver"], doc["satellites"]) == pytest.approx(
            row["vdop"], rel=1e-9
        )
    assert {row["predict_exit"] for _, row in rings} == {EXIT_OK, EXIT_NUMERICAL}


class TestImportBudget:
    # scipy is not a dependency and mpmath only a test one, so no command may
    # import either; PyYAML is for config files, the process pool for no
    # command, and edmdetect.audit for `audit` alone, so no other command
    # without a config file loads any of them. A fresh interpreter is needed,
    # since the test session imports them all.
    SCRIPT = """
import json, sys
from edmdetect import cli
def loaded():
    return sorted({"scipy", "mpmath", "yaml", "concurrent.futures", "edmdetect.audit"}
                  & set(sys.modules))
out, cfg = sys.argv[1:]
seen = {"import": loaded()}
assert cli.main(["predict", "--out", out]) == 0
seen["predict"] = loaded()
assert cli.main(["simulate", "--trials", "2048", "--out", out]) == 0
seen["simulate"] = loaded()
assert cli.main(["audit", "--out", out]) == 0
seen["audit"] = loaded()
assert cli.main(["predict", "--config", cfg, "--out", out]) == 0
seen["config"] = loaded()
print(json.dumps(seen))
"""

    @pytest.fixture(scope="class")
    def seen(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("imports")
        cfg = tmp / "config.yaml"
        cfg.write_text("sigma_v: 3.0\n")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp), str(cfg)],
            env=fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_predict_and_simulate_load_neither_scipy_nor_mpmath(self, seen):
        for command in ("import", "predict", "simulate"):
            assert not {"scipy", "mpmath"} & set(seen[command]), command

    def test_predict_and_simulate_load_neither_yaml_nor_process_pool(self, seen):
        for command in ("import", "predict", "simulate"):
            assert seen[command] == [], command

    def test_audit_does_not_load_mpmath(self, seen):
        assert seen["audit"] == ["edmdetect.audit"]

    def test_config_run_still_loads_yaml(self, seen):
        # The audit module stays loaded from the run before.
        assert seen["config"] == ["edmdetect.audit", "yaml"]

    def test_package_import_leaves_the_audit_unloaded(self):
        script = (
            "import sys, edmdetect\n"
            "assert 'edmdetect.audit' not in sys.modules\n"
            "from edmdetect import FiniteDifferenceAudit, finite_difference_audit\n"
            "print(finite_difference_audit.__module__, FiniteDifferenceAudit.__module__)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["edmdetect.audit", "edmdetect.audit"]


def test_simulate_does_not_import_numpy_ma(tmp_path):
    # The histogram's Freedman-Diaconis bins come without np.percentile,
    # whose np.unique imports numpy.ma on first use; a fresh interpreter
    # shows whether a simulate run still pays for that import.
    script = (
        "import sys\n"
        "from edmdetect import cli\n"
        "assert cli.main(['simulate', '--trials', '2000', '--out', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_predict_and_audit_do_not_import_numpy_random(tmp_path):
    # The constellation comes from a stdlib copy of default_rng's normals, so
    # neither command loads numpy.random. TestImportBudget runs simulate
    # (whose trial noise needs Philox) before audit, hence a process of its own.
    script = (
        "import sys\n"
        "from edmdetect import cli\n"
        "seen = []\n"
        "for command in ('predict', 'audit'):\n"
        "    assert cli.main([command, '--out', sys.argv[1]]) == 0\n"
        "    seen.append('numpy.random' in sys.modules)\n"
        "print(seen)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[False, False]"


class TestReadmeMatchesCli:
    # The README documents every flag and config key; removed knobs must not
    # linger there.
    text = README.read_text()

    def test_flag_table_lists_exactly_the_parser_flags(self):
        (sub,) = (a for a in _build_parser()._actions if a.choices and "audit" in a.choices)
        flags = {
            opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings
        } - {"-h", "--help"}
        documented = re.findall(r"^\| `(--[\w-]+)", self.text, flags=re.M)
        assert sorted(documented) == sorted(flags)

    def test_config_example_lists_exactly_the_config_keys(self):
        (example,) = re.findall(r"```yaml\n(.*?)```", self.text, flags=re.S)
        keys = re.findall(r"^(?:# )?(\w+):", example, flags=re.M)
        assert sorted(keys) == sorted({*_KEYS, *_POINT_KEYS, "constellation"})

    def test_prediction_key_list_matches_what_predict_writes(self, tmp_path):
        (listed,) = re.findall(r"`prediction\.json` — keys `([^`]*)`", self.text)
        nested = dict(re.findall(r"(\w+)\{([^}]*)\}", listed))
        top = re.sub(r"\{[^}]*\}", "", listed)
        assert main(["predict", "--out", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "prediction.json").read_text())
        assert sorted(re.findall(r"\w+", top)) == sorted(doc)
        assert list(nested) == ["thresholds"]
        assert sorted(re.findall(r"\w+", nested["thresholds"])) == sorted(doc["thresholds"])


class TestLazyFormatTables:
    def test_predict_and_audit_never_import_the_formatter(self, tmp_path):
        # Only simulate writes trials.csv, so only simulate compiles and
        # imports _floatfmt. A fresh interpreter is needed, since the test
        # session imports it.
        script = (
            "import sys\n"
            "from edmdetect import cli\n"
            "out = sys.argv[1]\n"
            "seen = []\n"
            "for argv in (['predict'], ['audit'], ['simulate', '--trials', '2048']):\n"
            "    assert cli.main(argv + ['--out', out]) == 0\n"
            "    seen.append('edmdetect._floatfmt' in sys.modules)\n"
            "print(seen)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[False, False, True]"

    def test_predict_and_audit_leave_the_format_tables_unbuilt(self, tmp_path):
        # The trials.csv formatter's tables are built on first use, so the
        # commands that write no trials never pay for them.
        _floatfmt._tables.cache_clear()
        assert main(["predict", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["audit", "--out", str(tmp_path)]) == EXIT_OK
        assert _floatfmt._tables.cache_info().currsize == 0
        assert main(["simulate", "--trials", "2048", "--out", str(tmp_path)]) == EXIT_OK
        assert _floatfmt._tables.cache_info().currsize == 1
