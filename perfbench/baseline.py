"""Run every workload at several seeds; report spreads and write a baseline.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BASELINE.json

Each run is a separate ``perfbench/run.py`` process, started from the
root of the checkout with ``--workload``, ``--seed``, ``--seconds`` and
``--trace`` as any other run would be.  For every end-to-end metric the
spread is the interquartile distance of the per-seed values over their
median (``statistics.quantiles(values, n=4)``); it is flagged when it
exceeds a third of the metric's bound in ``BENCHMARK.json``.  One
traced run per workload supplies the per-layer figures.  With
``--out`` the medians, spreads, per-invocation costs (scaled to the
reference host speed like the metrics), each run's host speed and the
environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as tmp:
        details_path = os.path.join(tmp, "details.json")
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--details", details_path],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        with open(details_path, encoding="utf-8") as fh:
            details = json.load(fh)[workload]
    return json.loads(proc.stdout.strip().splitlines()[-1]), details


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def source_commit() -> str | None:
    """The commit being measured, when the checkout is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "LAPASYM_THREADS": "unset in every lapasym subprocess",
        "worker_processes": 1,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)

    report: dict = {"commit": source_commit(), "environment": environment(),
                    "run_seconds": seconds,
                    "seeds": list(range(1, args.seeds + 1)),
                    "known_failures": workloads.KNOWN_FAILURES, "workloads": {}}
    steady = True
    for name in workloads.WORKLOADS:
        values: dict = {}
        costs: dict = {}
        speeds: list = []
        argv: dict = {}
        for seed in report["seeds"]:
            result, details = run_once(name, seed, seconds, 0)
            if not result["correct"]:
                steady = False
                print(f"{name} seed {seed}: outputs not correct", file=sys.stderr)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for inv_id, wall in details["call_median_s"].items():
                costs.setdefault(inv_id, []).append(wall)
            speeds.append(details["host_speed"])
            argv = argv or details["argv"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric, vals in values.items():
            s = spread(vals)
            flag = "" if s < bounds[metric] / 3 else "  <-- above bound/3"
            if flag:
                steady = False
            print(f"  {name} {metric:12s} median {statistics.median(vals):.5g} "
                  f"spread {s:.4f} (bound {bounds[metric]}){flag}", flush=True)
            summary[metric] = {"median": statistics.median(vals), "spread": s,
                               "bound": bounds[metric], "values": vals}
        entry = {
            "why": why.get(name, ""),
            "end_to_end": summary,
            "host_speed": speeds,
            "invocations": {inv_id: {"argv_at_first_seed": argv.get(inv_id),
                                     "median_wall_s": statistics.median(walls)}
                            for inv_id, walls in costs.items()},
        }
        traced, _ = run_once(name, report["seeds"][0], seconds, 1)
        entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
