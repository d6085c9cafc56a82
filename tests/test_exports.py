"""Every name a module exports through ``__all__`` exists."""

import importlib

import pytest

MODULES = ["lapasym", "lapasym.bell", "lapasym.cli", "lapasym.crosscheck",
           "lapasym.engine", "lapasym.exprs", "lapasym.integrators", "lapasym.jets",
           "lapasym.lanes", "lapasym.models", "lapasym.oracle", "lapasym.vector"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
