"""Shared pytest hooks."""

from pathlib import Path


def pytest_report_header(config):
    # pyproject.toml's pythonpath = ["src"] goes ahead of PYTHONPATH, so
    # the header names the tree whose package the tests import
    import lapasym

    return f"lapasym under test: {Path(lapasym.__file__).resolve().parent}"
