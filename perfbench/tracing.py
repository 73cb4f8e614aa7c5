"""In-memory spans for the traced benchmark run.

A span records a name, its start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started, and the id of the run
it belongs to. Spans stay in memory and are written out once, at the end.
Nothing inside ``src/`` is traced: spans are opened here, around calls into
the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# The package modules, in dependency order; each is one layer.
LAYERS = ("geometry", "edm", "perturbation", "montecarlo", "cli")


class Tracer:
    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; spans opened inside it become its children."""
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, index: int) -> float:
        rec = self.spans[index]
        return rec["end"] - rec["start"]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [self.duration(i) for i in range(len(self.spans))]
        for i, rec in enumerate(self.spans):
            if rec["parent"] is not None:
                out[rec["parent"]] -= self.duration(i)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n")


def rebind(replacements: dict) -> list[tuple]:
    """Rebind, in every loaded ``edmdetect`` module, each name bound to an
    object whose id is a key of ``replacements`` to that key's value.

    Returns the (module, name, original) triples, for restoring.
    """
    replaced = []
    for name, module in sorted(sys.modules.items()):
        if name == "edmdetect" or name.startswith("edmdetect."):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    replaced.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
    return replaced


def _public_functions(module) -> dict:
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__
    }


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every public function of each layer in a span while active.

    Each function is replaced under every name any ``edmdetect`` module
    binds it to, so calls through ``from .x import f`` are traced as well
    as ``x.f(...)``. The originals are restored on exit.
    """
    wrappers = {}
    for layer in LAYERS:
        for name, fn in _public_functions(sys.modules[f"edmdetect.{layer}"]).items():
            wrappers[id(fn)] = _traced(tracer, f"{layer}.{name}", fn)
    replaced = rebind(wrappers)
    try:
        yield
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced
