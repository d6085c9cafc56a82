"""Short calls load only the layers they use.

``import lapasym`` loads no numpy: the package's names resolve on first
use.  ``bell-table`` loads the Bell layer alone, with no numpy and none
of the series layers, and no other command, nor loading a model, loads
the Bell layer; a group-dimension-1 ``expand``, float or exact, loads
the series layers but not numpy, which only lanes (a rule of several
directions) and the oracle load; ``expand`` never loads the oracle or
its integrators, ``verify`` and ``density-sweep`` load the oracle, no
command loads the cross-checks; and the command line never loads scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lapasym
from lapasym.models import _BUILTIN_FACTORIES

SRC = str(Path(lapasym.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "golden"

# runs each argv (a JSON list) through the command line in this one
# process and prints which modules are loaded after it
CODE = """
import contextlib, io, json, sys
import lapasym, lapasym.cli

MODULES = ("numpy", "scipy", "lapasym.integrators", "lapasym.engine", "lapasym.jets",
           "lapasym.exprs", "lapasym.models", "lapasym.bell", "lapasym.oracle",
           "lapasym.crosscheck")

for argv in sys.argv[1:]:
    if argv == "import scipy.integrate":
        import scipy.integrate
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            assert lapasym.cli.main(json.loads(argv)) == 0
    print(*(name in sys.modules for name in MODULES))
"""

# the benchmark's cold start: the command line module, then each model
COLD_START = """
import sys, lapasym.cli
from lapasym.models import resolve_model
for source in sys.argv[1:]:
    resolve_model(source)
print(*(name in sys.modules for name in ("numpy", "lapasym.bell", "lapasym.oracle",
                                          "lapasym.crosscheck")))
"""


def flat_config(dim):
    return {
        "name": f"flat{dim}", "group_dim": dim, "chart_dim": dim,
        "phi": ["+", *(["*", f"w{i}", f"x{i}"] for i in range(dim))] if dim > 1
               else ["*", "w0", "x0"],
        "flow_field": [f"w{i}" for i in range(dim)],
        "laplacian_phi": "0", "zero_points": [[0] * dim], "orbit_volume": "1",
    }


def run_python(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def loaded_after(*calls):
    return run_python(CODE, *(call if isinstance(call, str) else json.dumps(call)
                              for call in calls))


def test_short_calls_leave_scipy_unloaded(tmp_path):
    model = tmp_path / "flat4.json"
    model.write_text(json.dumps(flat_config(4)), encoding="utf-8")
    line = str(GOLDEN / "line_poly.json")
    # loaded (numpy, scipy, integrators, engine, jets, exprs, models, bell,
    # oracle, crosscheck) after each call.  bell-table loads the Bell layer alone
    assert loaded_after(["bell-table", "--order", "4"]) == [
        "False False False False False False False True False False",
    ]
    # one process: group-dimension-1 expands, float and exact, none of
    # which loads numpy or the Bell layer
    assert loaded_after(
        ["expand", "--model", "builtin:sphere", "--order", "4"],
        ["expand", "--model", "builtin:gaussian", "--a", "1/2", "--order", "4"],
        ["expand", "--model", line, "--exact", "--order", "14"],
    ) == [
        "False False False True True True True False False False",
        "False False False True True True True False False False",
        "False False False True True True True False False False",
    ]
    # a fresh process each: a 4-d rule takes its polar nodes from the
    # Golub-Welsch eigenproblem, and the oracle runs on numpy arrays
    assert loaded_after(
        ["expand", "--model", str(model), "--order", "2", "--resolution", "4"],
    ) == ["True False False True True True True False False False"]
    assert loaded_after(
        ["verify", "--model", "builtin:sphere", "--order", "2", "--k", "100,300,1000"],
    ) == ["True False True True True True True False True False"]
    # the probe sees scipy once it is imported
    assert loaded_after(
        ["density-sweep", "--model", "builtin:sphere", "--order", "2", "--k", "100,1000"],
        "import scipy.integrate",
    ) == ["True False True True True True True False True False",
          "True True True True True True True False True False"]


def test_loading_a_model_loads_no_numpy(tmp_path):
    # every builtin and config models of group dimension 1, 2 and 3, as
    # the benchmark's cold start loads them; nor does it load the Bell layer,
    # the oracle or the cross-checks
    sources = [f"builtin:{name}" for name in _BUILTIN_FACTORIES]
    for dim in (1, 2, 3):
        path = tmp_path / f"flat{dim}.json"
        path.write_text(json.dumps(flat_config(dim)), encoding="utf-8")
        sources.append(str(path))
    sources += [str(GOLDEN / name) for name in ("line_poly.json", "sphere1_product.json",
                                                "sphere2_product.json", "flat2_aniso.json")]
    assert run_python(COLD_START, *sources) == ["False False False False"]


# scalar dispatch in a process that never loads numpy: domain errors of
# jets.sqrt and jets.log on ints, Fractions and floats, and a config
# expression's zero divisor
SCALAR_DISPATCH = """
import sys
from fractions import Fraction
from lapasym import jets
from lapasym.errors import DomainError
from lapasym.exprs import Positional, compile_expression

def error(fn, *args):
    try:
        fn(*args)
    except DomainError as exc:
        return str(exc)

for value in (-1, Fraction(-1, 3), -1e-3):
    print(error(jets.sqrt, value))
for value in (0, -1, Fraction(0), Fraction(-1, 3), 0.0, -1e-3):
    print(error(jets.log, value))
print(jets.sqrt(4), jets.sqrt(Fraction(4, 9)), jets.sqrt(2.25), jets.log(1), jets.exp(0))
fn = compile_expression(Positional(["/", "x0", ["-", "x1", "1"]], ("x0", "x1")))
for point in ((1, 1), (Fraction(1, 2), Fraction(1)), (1.0, 1.0)):
    print(error(fn, point))
print(fn((1, 3)), fn((Fraction(1, 3), 3)), fn((1.0, 3.0)))
print("numpy" in sys.modules)
"""


def test_scalar_dispatch_needs_no_numpy():
    division = 'division by zero in ["/", "x0", ["-", "x1", "1"]]'
    assert run_python(SCALAR_DISPATCH) == [
        *["square root of a negative value"] * 3,
        *["logarithm of a nonpositive value"] * 6,
        "2 2/3 1.5 0 1",
        *[division] * 3,
        "0.5 1/6 0.5",
        "False",
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
