"""Tests for the scripts under ``tools/``."""

import importlib.util
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


def load_same_output():
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_changed_lines_pairs_lines_by_position():
    same_output = load_same_output()
    assert same_output.changed_lines(b"a\nb\nc\n", b"a\nb\nc\n") == []
    assert same_output.changed_lines(b"a\nb\nc\n", b"a\nB\nc\nd\n") == [
        (2, "b", "B"), (4, "(no line)", "d")]


def test_same_output_prints_each_differing_line(tmp_path, monkeypatch, capsys):
    # two trees whose outputs differ in one line of one invocation's stdout
    # and in its exit code; no invocation runs
    same_output = load_same_output()
    change = tmp_path / "change"
    (change / "src" / "lapasym").mkdir(parents=True)
    (change / "src" / "lapasym" / "cli.py").write_text("", encoding="utf-8")
    plan = {"invocations": [{"id": "one", "argv": ["verify", "--k", "30"]},
                            {"id": "two", "argv": ["expand"]}]}

    def outputs(tree, _plan):
        moved = tree == str(change)
        return {"one": (2 if moved else 0, b"# k=30\n30,0.5\n" if moved else b"# k=30\n30,0.25\n",
                        b""),
                "two": (0, b"same\n", b"")}

    monkeypatch.setattr(same_output.workloads, "WORKLOADS", ("oracle",))
    monkeypatch.setattr(same_output.workloads, "generate", lambda workload, seed: plan)
    monkeypatch.setattr(same_output, "SEEDS", (1,))
    monkeypatch.setattr(same_output, "outputs", outputs)
    assert same_output.main([str(ROOT), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "oracle seed 1 one: exit code, stdout differ (verify --k 30)",
        "  stdout 2 - 30,0.25",
        "  stdout 2 + 30,0.5",
        "1 of 2 invocations differ",
    ]
