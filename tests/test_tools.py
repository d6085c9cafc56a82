"""Tests for the scripts under ``tools/``."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
USAGE = "usage: python3 tools/same_output.py PARENT CHANGE\n"


@pytest.mark.parametrize("trees", [
    lambda tmp: [ROOT, ROOT],
    lambda tmp: [ROOT, tmp],
    lambda tmp: [tmp / "missing", ROOT],
], ids=["same-tree", "no-cli", "no-tree"])
def test_same_output_refuses_trees_it_cannot_compare(trees, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "same_output.py"),
                           *map(str, trees(tmp_path))],
                          capture_output=True, text=True, stdin=subprocess.DEVNULL)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", USAGE)
