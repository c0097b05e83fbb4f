"""The public surface: every name a module lists in ``__all__`` exists, and
the package re-exports only names that its modules list there."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cfquant

MODULES = ("quantizer", "channel", "estimation", "detection", "simulation")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"cfquant.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


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
