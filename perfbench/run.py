"""End-to-end and per-layer benchmark for the ``lapasym`` command.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series --seed 1 --seconds 35 --trace 0

Load is a closed loop with one client: the workload's invocations run
one after another, each as its own ``python -m lapasym.cli ...``
subprocess with ``LAPASYM_THREADS`` removed from the environment.  Every
output is checked against an exact reference computed without lapasym.
The invocation list is repeated until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host speed (see ``REFERENCE_PROBE_S``).  ``--trace 1`` alternates
untraced passes with passes through ``tracer.py`` and reports the
per-layer metrics; traced stdout must equal untraced stdout byte for
byte.  ``--workload all`` runs every workload in turn.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# (name, unit) of every reported metric, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_frac", "ratio"),
    ("min_digits", "digits"),
)
PER_LAYER = spans.PER_LAYER
PER_LAYER_UNITS = {"s": "s", "self_s": "s", "import_s": "s", "import_scipy_s": "s",
                   "unattributed_s": "s", "distinct_ratio": "ratio",
                   "overhead_frac": "ratio"}
# cold starts before every pass, so that setup_s is a median over the
# whole run; one more, untimed, comes first and fills the file cache
COLD_PER_PASS = 3
# a run must end within 180 s: any call still running this long after the
# run started is killed and counts as failed
RUN_DEADLINE_S = 170.0
# The benchmark shares a few cores of a host whose speed drifts, within a
# run and between runs: on a 2-vCPU Xeon the same cold import took 0.6 s
# in one ten-minute stretch and 0.9 s in another.  The reported times are
# therefore scaled to a fixed reference speed.  Before and after every
# subprocess this process times a fixed pure-Python loop three times (the
# probe is the median, which a burst of load on one of them does not
# move), and the call's wall time is multiplied by its host speed,
# REFERENCE_PROBE_S over the mean of the two probe times.  The probe runs no lapasym code,
# so at a given host speed a change to the program moves a scaled time by
# the same share as the raw time.  The raw times and the host speed are
# printed beside the scaled times.
PROBE_LOOPS = 300_000
REFERENCE_PROBE_S = 0.028
COLD_START_CODE = ("import sys, lapasym.cli\n"
                   "from lapasym.models import resolve_model\n"
                   "for source in sys.argv[1:]:\n"
                   "    resolve_model(source)\n")


def probe() -> float:
    """Median seconds this process takes for a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


@dataclass
class Call:
    """One finished subprocess."""

    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_mb: float
    # REFERENCE_PROBE_S over the mean of the probes before and after the call
    host_speed: float

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * self.host_speed


class Runner:
    """Runs subprocesses from the work directory with a pinned environment."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        env = {k: v for k, v in os.environ.items() if k != "LAPASYM_THREADS"}
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env
        self._serial = 0
        self._probe_s: float | None = None  # the probe after the last call

    def run(self, argv: list[str]) -> Call:
        self._serial += 1
        out_path = os.path.join(self.workdir, f"out-{self._serial}.txt")
        err_path = os.path.join(self.workdir, f"err-{self._serial}.txt")
        # calls run back to back, so the probe after one call is the probe
        # before the next
        before = probe() if self._probe_s is None else self._probe_s
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.workdir,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        self._probe_s = probe()
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = []
        for path in (out_path, err_path):
            with open(path, "rb") as fh:  # bytes as written: no newline translation
                texts.append(fh.read().decode("utf-8", errors="replace"))
            os.remove(path)
        return Call(wall, proc.returncode, *texts, usage.ru_maxrss / 1024.0,
                    2.0 * REFERENCE_PROBE_S / (before + self._probe_s))

    def cli(self, inv: dict) -> Call:
        return self.run(["-m", "lapasym.cli", *inv["argv"]])

    def traced(self, inv: dict, prefix: str) -> Call:
        tracer = os.path.join(HERE, "tracer.py")
        return self.run(["-X", "importtime", tracer, prefix, *inv["argv"]])

    def cold_start(self, models: list[str]) -> Call:
        call = self.run(["-c", COLD_START_CODE, *models])
        if call.returncode != 0:
            raise RuntimeError(f"cold start failed: {call.stderr.strip()}")
        return call


@dataclass
class Outcome:
    inv: dict
    call: Call
    verdict: check.Verdict


def run_pass(runner: Runner, plan: dict, trace_dir: str | None = None,
             expected_stdout: dict | None = None) -> tuple[list[Outcome], list]:
    """Run the invocation list once; returns outcomes and (traced) span summaries."""
    outcomes, traces = [], []
    for inv in plan["invocations"]:
        if trace_dir is None:
            call = runner.cli(inv)
        else:
            prefix = os.path.join(trace_dir, inv["id"])
            call = runner.traced(inv, prefix)
            traces.append(spans.read_trace(prefix, call.stderr))
        verdict = check.check(inv, call.returncode, call.stdout)
        if expected_stdout is not None and call.stdout != expected_stdout[inv["id"]]:
            verdict.fail("traced stdout differs from untraced stdout")
        outcomes.append(Outcome(inv, call, verdict))
    return outcomes, traces


def call_time(call: Call, scaled: bool) -> float:
    return call.scaled_s if scaled else call.wall_s


def pass_wall(outcomes: list[Outcome], scaled: bool = True) -> float:
    return math.fsum(call_time(o.call, scaled) for o in outcomes)


def _unexpected(outcomes: list[Outcome]) -> list[Outcome]:
    return [o for o in outcomes if not o.verdict.passed and "known_failure" not in o.inv]


def call_medians(passes: list[list[Outcome]], scaled: bool = True) -> dict:
    """Median time of each invocation over the passes, by invocation id."""
    walls: dict = {}
    for outcomes in passes:
        for o in outcomes:
            walls.setdefault(o.inv["id"], []).append(call_time(o.call, scaled))
    return {inv_id: statistics.median(w) for inv_id, w in walls.items()}


def timings(cold: list[Call], passes: list[list[Outcome]], scaled: bool = True) -> dict:
    return {
        "setup_s": statistics.median(call_time(c, scaled) for c in cold),
        "wall_s": statistics.median(pass_wall(p, scaled) for p in passes),
        # the median invocation: taken over per-invocation medians, so the
        # value does not jump with the number of passes
        "call_p50_s": statistics.median(call_medians(passes, scaled).values()),
    }


def end_to_end(cold: list[Call], passes: list[list[Outcome]]) -> dict:
    flat = [o for p in passes for o in p]
    digits = [d for o in flat if o.verdict.passed for d in o.verdict.digits]
    return {
        **timings(cold, passes),
        "peak_rss_mb": max(o.call.maxrss_mb for o in flat),
        "failed_frac": sum(not o.verdict.passed for o in flat) / len(flat),
        "min_digits": min(digits) if digits else 0.0,
    }


def _keep_going(started: float, rounds: int, seconds: float) -> bool:
    # start another round only if at least half of it fits in the budget
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / rounds < seconds


def measure(runner: Runner, plan: dict, seconds: float, trace: bool,
            trace_dir: str) -> tuple[dict, list[Call], list[list[Outcome]]]:
    if not trace:
        sources = workloads.model_sources(plan)
        runner.cold_start(sources)
        cold: list[Call] = []
        passes: list[list[Outcome]] = []
        started = time.perf_counter()
        while True:
            cold += [runner.cold_start(sources) for _ in range(COLD_PER_PASS)]
            passes.append(run_pass(runner, plan)[0])
            if not _keep_going(started, len(passes), seconds):
                break
        return end_to_end(cold, passes), cold, passes

    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    layer_runs: list[dict] = []
    started = time.perf_counter()
    while True:
        outcomes = run_pass(runner, plan)[0]
        plain.append(outcomes)
        stdout = {o.inv["id"]: o.call.stdout for o in outcomes}
        round_dir = os.path.join(trace_dir, f"pass{len(traced)}")
        os.makedirs(round_dir)
        outcomes, traces = run_pass(runner, plan, round_dir, stdout)
        traced.append(outcomes)
        layer_runs.append(spans.per_layer_metrics(traces, [o.call.wall_s for o in outcomes]))
        if not _keep_going(started, len(traced), seconds):
            break
    overhead = (statistics.median(pass_wall(p) for p in traced)
                / statistics.median(pass_wall(p) for p in plain) - 1.0)
    metrics = {name: overhead if name == "trace.overhead_frac"
               else statistics.median(run[name] for run in layer_runs)
               for name in PER_LAYER}
    return metrics, [], plain + traced


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool,
                 details: dict | None = None) -> dict:
    workdir = os.path.join(root, ".perfbench", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    plan = workloads.generate(name, seed)
    workloads.write_models(plan, workdir)
    runner = Runner(root, workdir)
    metrics, cold, passes = measure(runner, plan, seconds, trace,
                                    os.path.join(workdir, "trace"))
    flat = [o for p in passes for o in p]
    unexpected = _unexpected(flat)
    for o in unexpected:
        print(f"FAILED {name}/{o.inv['id']}: {'; '.join(o.verdict.reasons)}",
              file=sys.stderr)
    unit = per_layer_unit if trace else dict(END_TO_END).get
    print(f"workload {name}  seed {seed}  passes {len(passes)}  "
          f"invocations {len(flat)}  "
          f"({len(plan['invocations'])} per pass, {len(workloads.KNOWN_FAILURES)} "
          "known failures each)")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:>14.6g} {unit(key)}")
    speeds = [c.host_speed for c in cold] + [o.call.host_speed for o in flat]
    speed = statistics.median(speeds)
    print(f"  host speed: median {speed:.4f}, range {min(speeds):.4f}-{max(speeds):.4f} "
          f"(reference probe {REFERENCE_PROBE_S} s)")
    if cold:
        print("  unscaled: " + "  ".join(f"{key} {value:.6g} s" for key, value
                                         in timings(cold, passes, scaled=False).items()))
    calls = call_medians(passes)
    print("  pass walls (s): " + " ".join(f"{pass_wall(p):.3f}" for p in passes))
    for inv_id, wall in calls.items():
        print(f"  call {inv_id:30s} median {wall:.3f} s")
    if details is not None:
        details[name] = {"host_speed": speed,
                         "pass_walls_s": [pass_wall(p) for p in passes],
                         "call_median_s": calls,
                         "argv": {inv["id"]: inv["argv"] for inv in plan["invocations"]}}
    return {
        "correct": not unexpected,
        "attempted": len(flat),
        "failed": len(unexpected),
        "metrics": {key: {"value": value,
                          "unit": unit(key)}
                    for key, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", default=None,
                        help="also write pass walls and per-invocation medians here")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lapasym", "cli.py")):
        print("error: run from the root of a lapasym checkout (no src/lapasym/cli.py)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    details: dict = {}
    results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                                  details)
               for name in names}
    if args.details:
        with open(args.details, "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1)
    if args.workload == "all":
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "workloads": results}
    else:
        summary = results[args.workload]
    print(json.dumps(summary, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
