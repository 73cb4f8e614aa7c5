"""What the benchmark under perfbench/ needs from the package.

perfbench/probe.py stamps the end of set-up by looking up its
WORK_ENTRY_POINTS by module and name, and perfbench/layers.py still passes
run_trials(workers=2). A rename or a removal in the package would fail the
benchmark, not the suite; this test fails first.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

from edmdetect import NoiseModel, generate_constellation, run_trials

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


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


def test_montecarlo_serves_the_audit_it_no_longer_holds():
    from edmdetect import audit, montecarlo

    assert montecarlo.finite_difference_audit is audit.finite_difference_audit


def test_ignored_worker_count_changes_no_result():
    g = generate_constellation(12, 10.0, seed=1)
    nm = NoiseModel(sigma_v=3.0, bias_b=1.0e5)
    assert np.array_equal(run_trials(g, nm, 8, 1, workers=2).q, run_trials(g, nm, 8, 1).q)
