"""Tests for the package namespace: what `import mtdr` exports."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import mtdr

REPO = Path(__file__).resolve().parents[1]

MODULES = ("quantile_core", "monotone_map", "solvers", "fitting", "simulation", "cli")


def test_all_is_the_modules_all_in_order():
    modules = [importlib.import_module(f"mtdr.{name}") for name in MODULES]
    expected = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert mtdr.__all__ == expected
    for mod in modules:
        for name in mod.__all__:
            assert getattr(mtdr, name) is getattr(mod, name)
    assert isinstance(mtdr.__version__, str)


def test_cli_is_the_module():
    import mtdr.cli as cli_module

    assert isinstance(cli_module, types.ModuleType)
    assert mtdr.cli is cli_module
    assert callable(mtdr.cli.write_study)
    assert callable(mtdr.cli.cli) and callable(mtdr.cli.main)


def test_import_leaves_out_scipy_special():
    # scipy.special is most of the import time and memory; only
    # generate_dataset needs it, and fit, predict, evaluate and loocv never load it
    code = "import sys, mtdr, mtdr.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
