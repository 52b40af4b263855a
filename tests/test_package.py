"""Tests for the package namespace: what `import mtdr` exports."""

import importlib
import types

import mtdr

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
