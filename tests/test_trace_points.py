"""The benchmark's trace points name functions that exist.

perfbench/tracing.py wraps each (module, attribute) of its PATCHES table
while a traced benchmark runs.  The benchmark's own smoke test is outside
the default test paths, so this checks here that every name still resolves
and that fit calls the solvers through the names the tracer patches.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import mtdr.fitting as fitting
from mtdr.quantile_core import Domain, ProbGrid, QuantileGrid

UNIT = Domain(0.0, 1.0)
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_fit_calls_the_patched_solvers(monkeypatch):
    # the tracer replaces these module attributes before a traced fit runs,
    # so fit must look them up when it runs, not hold the functions that
    # were there when the module was imported
    calls = Counter()
    for name in ("weighted_isotonic", "simplex_least_squares"):

        def counted(*args, _name=name, _solver=getattr(fitting, name)):
            calls[_name] += 1
            return _solver(*args)

        monkeypatch.setattr(fitting, name, counted)
    grid = ProbGrid(20)
    quantiles = np.sort(np.random.default_rng(4).uniform(size=(6, 2, 20)))
    subjects = (
        fitting.Subject((QuantileGrid(UNIT, grid, x),), QuantileGrid(UNIT, grid, y))
        for x, y in quantiles
    )
    reference = QuantileGrid(UNIT, grid, grid.levels)
    fitting.fit(fitting.DataSet(subjects), 1, reference, fitting.FitConfig(3))
    assert calls["weighted_isotonic"] >= 1
    assert calls["simplex_least_squares"] >= 1
