"""The docstring examples of every public module run and pass."""

import doctest
import importlib

import pytest

from test_exports import MODULES


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    if name == "lapasym.bell":
        assert result.attempted > 0
