"""What the benchmark under perfbench/ needs from the package.

perfbench/probe.py stamps the end of set-up by looking up its
WORK_ENTRY_POINTS by module and name, perfbench/layers.py calls the
package's modules by attribute, still passes
run_trials(workers=2), times cli.resolve_config and cli.build_scenario on a
parsed simulate command, and its sweep judges the simulate writers' files
with perfbench/checks.py. A rename, a removal or a broken output in the package
would fail the benchmark, not the suite; these tests fail first.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

from edmdetect import NoiseModel, generate_constellation, run_trials

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PROBE = PERFBENCH / "probe.py"


def work_entry_points():
    (value,) = (
        node.value for node in ast.parse(PROBE.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "WORK_ENTRY_POINTS" for t in node.targets)
    )
    return ast.literal_eval(value)


def test_probe_entry_points_resolve_after_importing_the_cli():
    importlib.import_module("edmdetect.cli")
    points = work_entry_points()
    assert points
    for module, attr in points:
        assert callable(getattr(sys.modules[module], attr)), (module, attr)


def test_every_package_name_the_benchmark_uses_resolves():
    # Each edm.*, geometry.*, perturbation.*, montecarlo.* and cli.* attribute
    # that perfbench/layers.py or perfbench/probe.py names must exist, so a
    # deletion the benchmark still calls fails here first.
    from edmdetect import cli, edm, geometry, montecarlo, perturbation

    modules = {"cli": cli, "edm": edm, "geometry": geometry, "montecarlo": montecarlo,
               "perturbation": perturbation}
    named = {
        (node.value.id, node.attr)
        for path in (PERFBENCH / "layers.py", PROBE)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert ("edm", "augment_edm") in named and ("cli", "main") in named
    missing = [f"{mod}.{attr}" for mod, attr in sorted(named) if not hasattr(modules[mod], attr)]
    assert missing == []


def test_layer_calls_return_what_the_benchmark_consumes():
    # The name check above cannot see a return type. perfbench/layers.py
    # feeds edm.spectrum's result to edm.test_statistic and to
    # eigenvalue_sensitivities, and takes .rho of nominal_pseudoranges.
    from edmdetect import edm, geometry, perturbation

    g = generate_constellation(12, 10.0, seed=1)
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    d = geometry.true_ranges(g)
    rho_nom = geometry.nominal_pseudoranges(d, nm).rho
    D = edm.edm_from_gram(edm.gram_from_positions(g.satellites.T))
    nominal = edm.spectrum(edm.gram_centered(edm.augment_edm(D, rho_nom)))
    q = edm.test_statistic(nominal)
    s, lam = perturbation.eigenvalue_sensitivities(
        nominal, perturbation.gram_sensitivities(rho_nom))
    assert np.isfinite(q)
    assert s.shape == (3, g.m) and np.all(np.isfinite(s))
    assert np.array_equal(lam, nominal[0][[0, 3, 4]])


def test_montecarlo_serves_the_audit_it_no_longer_holds():
    from edmdetect import audit, montecarlo

    assert montecarlo.finite_difference_audit is audit.finite_difference_audit


def test_ignored_worker_count_changes_no_result():
    g = generate_constellation(12, 10.0, seed=1)
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    assert np.array_equal(run_trials(g, nm, 8, 1, workers=2).q, run_trials(g, nm, 8, 1).q)


def test_sweep_outputs_pass_the_benchmark_checks(tmp_path, monkeypatch):
    # perfbench/layers.py's m = 12 sweep step: the same scenario, noise,
    # trial count and calls, judged by checks.check_outputs as there.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import layers

    from edmdetect import geometry, montecarlo, perturbation

    m, n, seed = 12, layers.SWEEP_TRIALS[12], 1
    g = geometry.generate_constellation(m, layers.SWEEP[m], seed=layers.SCENARIO_SEED)
    nm = geometry.NoiseModel(sigma_v=layers.SIGMA_V, bias_b=layers.BIAS_B)
    dist = perturbation.predict_q_distribution(g, nm)
    thr = perturbation.detection_threshold(dist, layers.P_FA).one_sided_hi
    batch = montecarlo.run_trials(g, nm, n, seed, threshold=thr, workers=1)
    summary = montecarlo.summarize(batch, dist, threshold=thr)
    prov = {"n_sats": m, "elevation_mask_deg": layers.SWEEP[m], "trials": n,
            "master_seed": seed, "p_fa": layers.P_FA}
    montecarlo.write_trials_csv(batch, tmp_path / "trials.csv", prov)
    montecarlo.write_summary_json(summary, tmp_path / "summary.json", prov)
    montecarlo.write_histogram_csv(summary, tmp_path / "histogram.csv", prov)
    assert checks.check_outputs(tmp_path, "simulate", n) == []


def test_config_step_resolves_the_default_simulate_scenario(tmp_path, monkeypatch):
    # perfbench/layers.py's config step: parse the workload's simulate
    # command, then resolve the config and build the scenario from it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    from edmdetect import cli, geometry

    argv = layers._replays(layers.WORKLOADS["simulate-m12"]["commands"], 256, 1)[0]
    args = cli._build_parser().parse_args(argv + ["--out", str(tmp_path / "cli")])
    geom, nm = cli.build_scenario(cli.resolve_config(args))
    assert isinstance(geom, geometry.ScenarioGeometry)
    assert isinstance(nm, geometry.NoiseModel)
