"""The package surface: the names `edmdetect` exports, and the one module that
names numpy.random."""

import ast
from pathlib import Path

import edmdetect

SRC = Path(edmdetect.__file__).resolve().parent


def test_every_exported_name_resolves():
    # The audit's two names load lazily through the package's __getattr__.
    missing = [name for name in edmdetect.__all__ if not hasattr(edmdetect, name)]
    assert missing == []
    assert len(set(edmdetect.__all__)) == len(edmdetect.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from edmdetect import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(edmdetect.__all__)


def names_numpy_random(tree):
    """Whether a module's code (not its strings) imports or reads numpy.random."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            return True
        if isinstance(node, ast.Import) \
                and any(a.name.startswith("numpy.random") for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module \
                and (node.module.startswith("numpy.random")
                     or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            return True
    return False


def test_only_montecarlo_names_numpy_random():
    # predict and audit draw their constellation with the stdlib _normal stream;
    # only the trial noise comes from numpy's Philox generator.
    naming = sorted(path.name for path in SRC.glob("*.py")
                    if names_numpy_random(ast.parse(path.read_text())))
    assert naming == ["montecarlo.py"]


def test_numpy_random_walk_sees_each_spelling():
    spellings = ["np.random.default_rng(1)", "import numpy.random",
                 "from numpy.random import Philox", "from numpy import random"]
    assert all(names_numpy_random(ast.parse(code)) for code in spellings)
    assert not names_numpy_random(ast.parse('"""numpy.random"""\nrandom = 1'))
