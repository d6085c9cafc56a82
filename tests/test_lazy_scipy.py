"""The command line never loads scipy, and short calls leave the oracle's
integrators unloaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lapasym

SRC = str(Path(lapasym.__file__).resolve().parent.parent)

CODE = """
import contextlib, io, sys
import lapasym, lapasym.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert lapasym.cli.main(list(argv)) == 0

def loaded():
    print("scipy" in sys.modules, "lapasym.integrators" in sys.modules)

run("bell-table", "--order", "4")
run("expand", "--model", "builtin:sphere", "--order", "4")
# a 4-d rule takes its polar nodes from the Golub-Welsch eigenproblem
run("expand", "--model", sys.argv[1], "--order", "2", "--resolution", "4")
loaded()
run("verify", "--model", "builtin:sphere", "--order", "2", "--k", "100,300,1000")
run("density-sweep", "--model", "builtin:sphere", "--order", "2", "--k", "100,1000")
loaded()
import scipy.integrate
loaded()
"""

FLAT4 = {
    "name": "flat4", "group_dim": 4, "chart_dim": 4,
    "phi": ["+", *(["*", f"w{i}", f"x{i}"] for i in range(4))],
    "flow_field": [f"w{i}" for i in range(4)],
    "laplacian_phi": "0", "zero_points": [[0, 0, 0, 0]], "orbit_volume": "1",
}


def test_short_calls_leave_scipy_unloaded(tmp_path):
    model = tmp_path / "flat4.json"
    model.write_text(json.dumps(FLAT4), encoding="utf-8")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", CODE, str(model)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # (scipy loaded, integrators loaded): after bell-table and expand, after
    # verify and density-sweep, and after the probe imports scipy itself
    assert proc.stdout.splitlines() == ["False False", "False True", "True True"]
