"""The public surface: every name a module lists in ``__all__`` exists and is
used by the package or its demos, and the package re-exports only names that
its modules list there."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cfquant

MODULES = ("quantizer", "channel", "estimation", "detection", "simulation")
PACKAGE = Path(cfquant.__file__).resolve().parent
DEMOS = PACKAGE.parent.parent / "demos"


def _names_read():
    """Every name read, bare or as an attribute, in the package's and the demos'
    code.  A definition, an import and an ``__all__`` string read no name."""
    names = set()
    for path in [*PACKAGE.glob("*.py"), *DEMOS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cfquant.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_used(name):
    # Public names that only the tests call are test oracles the library carries.
    assert DEMOS.is_dir()
    module = importlib.import_module(f"cfquant.{name}")
    used = _names_read()
    assert [attr for attr in module.__all__ if attr not in used] == []


def test_package_reexports_only_exported_names():
    tree = ast.parse(Path(cfquant.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        exported = importlib.import_module(f"cfquant.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in exported] == [], node.module


@pytest.mark.parametrize("name", MODULES)
def test_symbol_power_before_noise_power(name):
    # Every public callable taking both powers takes them in one order.
    module = importlib.import_module(f"cfquant.{name}")
    for attr in module.__all__:
        try:
            params = list(inspect.signature(getattr(module, attr)).parameters)
        except (TypeError, ValueError):  # not callable, or a warning category
            continue
        if {"sigma_s2", "sigma_n2"} <= set(params):
            assert params.index("sigma_s2") < params.index("sigma_n2"), f"{name}.{attr}"
