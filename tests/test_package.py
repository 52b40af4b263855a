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
    # generate_dataset needs it, and fit, predict, evaluate and loocv never load
    # it.  multiprocessing is loaded only by a call that starts workers.
    code = (
        "import sys, mtdr, mtdr.cli;"
        " print('scipy.special' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_commands_without_simulation_leave_out_scipy(tmp_path):
    # fit, loocv, predict and evaluate run on numpy alone; scipy.optimize in
    # the fit would add about 23 MiB to the resident size of every command
    code = """if True:
        import sys
        import numpy as np
        from mtdr.cli import cli, write_long_csv

        rng = np.random.default_rng(0)  # plain samples: Beta draws need scipy
        write_long_csv("d.csv", rng.random((5, 1, 20)), rng.random((5, 20)))
        data = ["--data", "d.csv", "--p", "1", "--domain", "0,1", "--t", "20"]
        assert cli(["fit", *data, "--out", "m.json"]) == 0
        assert cli(["loocv", *data, "--out", "l.json"]) == 0
        scored = ["--model", "m.json", "--data", "d.csv"]
        assert cli(["predict", *scored, "--out", "p.csv"]) == 0
        assert cli(["evaluate", *scored]) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_serial_commands_leave_out_multiprocessing(tmp_path):
    # a command with one independent fit runs it in process: the worker
    # pool, and the import of multiprocessing, come only with loocv and with
    # simulate of two or more replications
    code = """if True:
        import sys
        import numpy as np
        from mtdr.cli import cli, write_long_csv

        rng = np.random.default_rng(0)
        write_long_csv("d.csv", rng.random((5, 1, 20)), rng.random((5, 20)))
        data = ["--data", "d.csv", "--p", "1", "--domain", "0,1", "--t", "20"]
        assert cli(["fit", *data, "--out", "m.json"]) == 0
        scored = ["--model", "m.json", "--data", "d.csv"]
        assert cli(["predict", *scored, "--out", "p.csv"]) == 0
        assert cli(["evaluate", *scored]) == 0
        assert cli(["simulate", "--scenario", "single", "--alpha", "0.5", "--n", "6",
                    "--m", "5", "--reps", "1", "--t", "20", "--out", "study"]) == 0
        print(sorted(name for name in sys.modules if name.startswith("multiprocessing")))
    """
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
