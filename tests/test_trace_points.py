"""The benchmark's trace points name functions that exist.

perfbench/tracing.py wraps each (module, attribute) of its PATCHES table
while a traced benchmark runs.  The benchmark's own smoke test is outside
the default test paths, so this checks here that every name still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, attr, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
