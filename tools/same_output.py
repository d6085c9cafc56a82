"""Check that two checkouts print the same bytes on the benchmark's invocations.

Usage: ``python3 tools/same_output.py PARENT CHANGE``

PARENT and CHANGE are the roots of two checkouts of this repository.
Every invocation that ``perfbench.workloads.generate(workload, seed)``
plans, for each workload at seeds 1, 2 and 3, runs once in each
checkout as ``python -m lapasym.cli ...``, from a fresh directory that
holds the plan's model files, with that checkout's ``src`` on
``PYTHONPATH`` and the environment the benchmark gives its calls.  The
invocations are planned by the ``perfbench`` next to this script.  Each
invocation whose stdout, stderr or exit code differs is printed, and
under it each line of stdout and stderr that differs, by position: the
parent's line (``-``), then the change's (``+``).  The exit status is 1
if any invocation differs, else 0.  The calls run one at a time.  PARENT and
CHANGE must be two different directories, each with a
``src/lapasym/cli.py``; otherwise the usage line is printed and the exit
status is 2.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from itertools import zip_longest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def environment(tree: str) -> dict:
    # as perfbench/run.py's Runner sets it
    env = {k: v for k, v in os.environ.items() if k != "LAPASYM_THREADS"}
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def outputs(tree: str, plan: dict) -> dict:
    """``invocation id -> (exit code, stdout, stderr)`` in one checkout."""
    env = environment(tree)
    with tempfile.TemporaryDirectory() as workdir:
        workloads.write_models(plan, workdir)
        results = {}
        for inv in plan["invocations"]:
            proc = subprocess.run([sys.executable, "-m", "lapasym.cli", *inv["argv"]],
                                  cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True)
            results[inv["id"]] = (proc.returncode, proc.stdout, proc.stderr)
    return results


def changed_lines(old: bytes, new: bytes) -> list[tuple[int, str, str]]:
    """``(line number, parent's line, change's line)`` for each line that
    differs; a line that one side lacks reads ``(no line)``."""
    pairs = zip_longest(old.decode(errors="replace").splitlines(),
                        new.decode(errors="replace").splitlines(), fillvalue="(no line)")
    return [(number, a, b) for number, (a, b) in enumerate(pairs, 1) if a != b]


def comparable(parent: str, change: str) -> bool:
    """Whether PARENT and CHANGE are two different checkouts of lapasym."""
    if not all(os.path.isfile(os.path.join(tree, "src", "lapasym", "cli.py"))
               for tree in (parent, change)):
        return False
    return not os.path.samefile(parent, change)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not comparable(*argv):
        sys.stderr.write("usage: python3 tools/same_output.py PARENT CHANGE\n")
        return 2
    parent, change = argv
    total = differing = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            plan = workloads.generate(workload, seed)
            before, after = outputs(parent, plan), outputs(change, plan)
            for inv in plan["invocations"]:
                total += 1
                fields = [name for name, old, new in
                          zip(("exit code", "stdout", "stderr"), before[inv["id"]],
                              after[inv["id"]]) if old != new]
                if fields:
                    differing += 1
                    print(f"{workload} seed {seed} {inv['id']}: {', '.join(fields)} differ "
                          f"({' '.join(inv['argv'])})")
                    for stream, old, new in zip(("stdout", "stderr"), before[inv["id"]][1:],
                                                after[inv["id"]][1:]):
                        for number, a, b in changed_lines(old, new):
                            print(f"  {stream} {number} - {a}")
                            print(f"  {stream} {number} + {b}")
    print(f"{differing} of {total} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
