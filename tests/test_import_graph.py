"""The modules keep to their roles, read off their import statements.

Every ``src/lapasym/*.py`` is parsed with :mod:`ast`, and every import in
it is collected, the ones inside functions included.  The series side
imports neither the oracle, the cross-checks, the integrators nor the
Bell layer; the oracle and the cross-checks do not import each other;
and the oracle takes from the series route only the names pinned here,
so that a new shared name is an edit to this file.
"""

import ast
from pathlib import Path

import pytest

import lapasym

PACKAGE = Path(lapasym.__file__).resolve().parent
SERIES = ("errors", "lanes", "vector", "exprs", "jets", "engine", "models")
CHECKS = ("oracle", "crosscheck", "integrators", "bell")
# what the oracle takes from the series route (the error types of
# lapasym.errors are everyone's): the model class and its reference point,
# the density kinds and the k sweep, the rule whose circles are its
# two-dimensional levels, and the exp that dispatches on arrays
ORACLE_SHARES = {
    ("engine", "sphere_rule"),
    ("jets", "exp"),
    ("models", "HamiltonianModel"),
    ("models", "_density_data"),
    ("models", "_reference_point"),
    ("models", "_sweep"),
}


def imports(module: str) -> set:
    """``(submodule, name)`` for each name that ``module`` imports from the
    package, anywhere in it; a whole submodule is ``(submodule, "*")``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "lapasym" and len(parts) > 1:
                    found.add((parts[1], "*"))
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["lapasym"]:
                    continue
                parts = parts[1:]
            if parts:
                found.update((parts[0], alias.name) for alias in node.names)
            else:
                found.update((alias.name, "*") for alias in node.names)
    return found


def sources(module: str) -> set:
    return {source for source, _ in imports(module)}


def test_every_module_has_a_role():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == {"__init__", "cli", *SERIES, *CHECKS}


def test_function_level_imports_are_read():
    assert {("integrators", "Dop853"), ("integrators", "quad")} <= imports("oracle")


@pytest.mark.parametrize("module", SERIES)
def test_series_side_imports_no_check(module):
    assert sources(module) & set(CHECKS) == set()


def test_oracle_and_crosscheck_do_not_import_each_other():
    assert "crosscheck" not in sources("oracle")
    assert "oracle" not in sources("crosscheck")


def test_oracle_shares_only_the_pinned_series_names():
    shared = {(source, name) for source, name in imports("oracle")
              if source in SERIES and source != "errors"}
    assert shared == ORACLE_SHARES
