"""scipy is loaded only by the numeric oracle, not by a short CLI call."""

import os
import subprocess
import sys
from pathlib import Path

import lapasym

SRC = str(Path(lapasym.__file__).resolve().parent.parent)

CODE = """
import contextlib, io, sys
import lapasym, lapasym.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert lapasym.cli.main(["bell-table", "--order", "4"]) == 0
    assert lapasym.cli.main(["expand", "--model", "builtin:sphere", "--order", "4"]) == 0
print("scipy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert lapasym.cli.main(["verify", "--model", "builtin:sphere", "--order", "2",
                             "--k", "100,300,1000"]) == 0
print("scipy" in sys.modules)
"""


def test_short_calls_leave_scipy_unloaded():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", CODE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # False before the oracle runs; True after verify shows the probe can see scipy
    assert proc.stdout.split() == ["False", "True"]
