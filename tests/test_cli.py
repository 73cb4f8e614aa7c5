"""Command-line surface: flags, files, exit codes, determinism."""

import json

import pytest

from edmdetect import generate_constellation
from edmdetect.cli import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)


def run(argv):
    return main(argv)


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

    def test_algebraic_ordering_prediction_is_refused(self, tmp_path, capsys):
        # Position 5 under algebraic ordering sits in the exact-zero cluster,
        # so the analytic prediction cannot track it.
        code = run(["simulate", "--trials", "50", "--ordering", "algebraic",
                    "--out", str(tmp_path / "x")])
        assert code == EXIT_NUMERICAL
        assert "eigenvector" in capsys.readouterr().err

    def test_summary_reports_both_orderings(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--trials", "200", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "summary.json").read_text())
        assert doc["ordering"] == "magnitude"
        assert doc["q_alt"]["ordering"] == "algebraic"
        assert doc["q_alt"]["mean"] is not None


class TestPredict:
    def test_json_schema_and_empty_warnings(self, tmp_path):
        out = tmp_path / "pred"
        assert run(["predict", "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "prediction.json").read_text())
        required = {
            "mu_num", "sigma_num", "mu_den", "sigma_den", "mu_q", "sigma_q",
            "covariance_num_den", "validity_warnings", "ordering", "thresholds",
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


class TestAudit:
    def test_default_scenario_passes_all_checks(self, tmp_path, capsys):
        out = tmp_path / "audit"
        assert run(["audit", "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) >= 5
        assert all(line.startswith("PASS") for line in lines)
        doc = json.loads((out / "audit.json").read_text())
        assert doc["passed"] is True
        names = " ".join(check["name"] for check in doc["checks"])
        assert "finite-difference" in names
        assert "centering" in names
        assert "rank collapse" in names

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
        import numpy as np

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
            (["predict", "--inflate-bias", "inf"], None),
            (["audit", "--fd-step", "10"], None),
            (["simulate", "--workers", "0"], None),
            (["predict"], "constellation: {n_sats: abc}\n"),
            (["predict"], "sigma_v: foo\n"),
            (["predict"], "trials: many\n"),
            (["predict"], "constellation: 12\n"),
            (["predict"], "receiver: [1.0, 2.0]\nsatellites: [[1.0, 2.0, 3.0], [4.0]]\n"),
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

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_AUDIT}) == 4
