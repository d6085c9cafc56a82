"""Short calls load only the layers they use.

``import lapasym`` loads no numpy: the package's names resolve on first
use.  ``bell-table`` loads the Bell layer alone, with no numpy and none
of the series layers; ``expand`` loads those but not the oracle's
integrators; and the command line never loads scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

def layers():
    print(*(name in sys.modules for name in
            ("numpy", "lapasym.engine", "lapasym.jets", "lapasym.exprs", "lapasym.models")))

run("bell-table", "--order", "4")
layers()
run("expand", "--model", "builtin:sphere", "--order", "4")
layers()
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


def run_python(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_short_calls_leave_scipy_unloaded(tmp_path):
    model = tmp_path / "flat4.json"
    model.write_text(json.dumps(FLAT4), encoding="utf-8")
    # (numpy, engine, jets, exprs, models loaded): after bell-table, then
    # after expand; (scipy loaded, integrators loaded): after both expands,
    # after verify and density-sweep, and after the probe imports scipy itself
    assert run_python(CODE, str(model)) == [
        "False False False False False", "True True True True True",
        "False False", "False True", "True True",
    ]


def test_importing_the_package_loads_no_layer():
    code = "import sys, lapasym; print(sorted(m for m in sys.modules " \
           "if m == 'numpy' or m.startswith('lapasym')))"
    assert run_python(code) == ["['lapasym']"]


def test_package_names_resolve_on_first_use():
    assert set(lapasym.__all__) <= set(dir(lapasym))
    assert lapasym.geometric_expansion is lapasym.models.geometric_expansion
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lapasym.no_such_name
