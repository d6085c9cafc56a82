"""Tests for the benchmark itself: generator, checker, tracer, contract.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The traced-run tests start two subprocesses per invocation of every
workload, so this module takes about two minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# interpreter start-up and teardown happen outside every span; on a
# 2-core Xeon they take about 0.15-0.25 s per process
SELF_TIME_SLACK_S = 0.35


# ------------------------------------------------------------ generator

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = json.dumps(workloads.generate(name, 7), sort_keys=True)
    again = json.dumps(workloads.generate(name, 7), sort_keys=True)
    other = json.dumps(workloads.generate(name, 8), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_known_failures_are_fixed_inputs(name):
    def known(seed):
        plan = workloads.generate(name, seed)
        invs = [i for i in plan["invocations"] if "known_failure" in i]
        files = {f: plan["models"][f] for f in ("tilted-line.json", "flat-1-10.json")}
        return invs, files

    invs, files = known(1)
    assert [i["id"] for i in invs] == list(workloads.KNOWN_FAILURES)
    assert known(99) == (invs, files)


def test_exact_references_match_closed_forms():
    # sphere: Beta(1/2, k + a) / (2 pi) against the partial sum at large k
    coeffs = reference.unit_sphere_coefficients(reference.Fraction(1, 2), 10)
    k = 4000
    exact = reference.unit_sphere_integral(reference.Fraction(1, 2), k)
    assert abs(reference.partial_sum(coeffs, 1, k) / exact - 1) < 1e-25
    # Gaussian: sqrt(pi), then zeros
    gauss = reference.rational_line_coefficients([0, 1], [1], [0], 0, 4)
    assert abs(gauss[0] - reference.mpmath.sqrt(reference.mpmath.pi)) < 1e-35
    assert all(c == 0 for c in gauss[1:])


def test_bell_reference_counts():
    table = check.bell_reference(6)
    stirling_6 = [1, 31, 90, 65, 15, 1]
    assert [sum(table[("partial", 6, str(l))].values()) for l in range(1, 7)] == stirling_6
    assert [sum(table[("complete", j, "")].values()) for j in range(7)] == \
        [1, 1, 2, 5, 15, 52, 203]
    assert sum(table[("power", 6, "3")].values()) == math.comb(5, 2)


# ------------------------------------------------------------ checker

def _bump_sixth_digit(value: float) -> float:
    digits = f"{abs(value):.16e}"  # d.ddddd... : the 6th significant digit is [6]
    bumped = digits[:6] + str((int(digits[6]) + 1) % 10) + digits[7:]
    return math.copysign(float(bumped), value)


@pytest.mark.parametrize("name, inv_id, columns", [
    ("cli-short", "builtin-sphere-o4", ("coefficient",)),
    ("oracle", "sphere2eq-verify", ("oracle", "partial_sum")),
    ("oracle", "sphere1-density", ("I", "J", "I_series", "J_series")),
])
def test_checker_rejects_a_changed_sixth_digit(tmp_path, name, inv_id, columns):
    plan = workloads.generate(name, 3)
    workloads.write_models(plan, str(tmp_path))
    inv = next(i for i in plan["invocations"] if i["id"] == inv_id)
    call = run.Runner(ROOT, str(tmp_path)).cli(inv)
    assert check.check(inv, call.returncode, call.stdout).passed
    lines = call.stdout.splitlines(keepends=True)
    header = next(pos for pos, line in enumerate(lines) if not line.startswith("#"))
    names = lines[header].rstrip("\n").split(",")
    changed = 0
    for pos in range(header + 1, len(lines)):
        for column in columns:
            cells = lines[pos].rstrip("\n").split(",")
            value = float(cells[names.index(column)])
            if value == 0:
                continue
            cells[names.index(column)] = repr(_bump_sixth_digit(value))
            mutated = "".join(lines[:pos] + [",".join(cells) + "\n"] + lines[pos + 1:])
            verdict = check.check(inv, 0, mutated)
            assert not verdict.passed, f"accepted a changed 6th digit: {column} row {cells[0]}"
            changed += 1
    assert changed >= 3 * len(columns)


def test_generator_refuses_a_loose_oracle_tolerance():
    with pytest.raises(ValueError, match="6th digit"):
        workloads._verify("loose", "builtin:sphere", "1/2", 2, [100, 300, 1000], 1e-8, 1,
                          reference.unit_sphere_coefficients(reference.Fraction(1, 2), 2),
                          lambda k: reference.mpmath.mpf(1) / k ** 2)


def test_checker_counts_exit_status_and_garbage():
    inv = workloads.generate("cli-short", 1)["invocations"][0]
    assert not check.check(inv, 2, "").passed
    assert not check.check(inv, 0, "not,a\ntable").passed


# ------------------------------------------------------------ traced runs

@pytest.fixture(scope="module")
def paired_runs(tmp_path_factory):
    """Every invocation of every workload, untraced then traced."""
    pairs = []
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        plan = workloads.generate(name, 5)
        workloads.write_models(plan, str(workdir))
        runner = run.Runner(ROOT, str(workdir))
        for inv in plan["invocations"]:
            plain = runner.cli(inv)
            prefix = str(workdir / inv["id"])
            traced = runner.traced(inv, prefix)
            pairs.append((name, inv, plain, traced, spans.read_trace(prefix, traced.stderr)))
    return pairs


def test_traced_stdout_is_byte_identical(paired_runs):
    for name, inv, plain, traced, _ in paired_runs:
        assert traced.returncode == plain.returncode, (name, inv["id"])
        assert traced.stdout == plain.stdout, (name, inv["id"])


def test_outputs_pass_except_known_failures(paired_runs):
    for name, inv, plain, _, _ in paired_runs:
        verdict = check.check(inv, plain.returncode, plain.stdout)
        assert verdict.passed == ("known_failure" not in inv), (name, inv["id"],
                                                                verdict.reasons)


def test_self_times_sum_to_traced_wall(paired_runs):
    for name, inv, _, traced, trace in paired_runs:
        total = sum(trace.layer_self().values())
        assert set(trace.layer_self()) == set(spans.LAYERS)
        assert abs(total - trace.root_s) < 1e-6
        assert 0 <= traced.wall_s - total < SELF_TIME_SLACK_S, (name, inv["id"])


def test_wrappers_see_every_layer(paired_runs):
    per_layer = spans.per_layer_metrics([t for *_, t in paired_runs],
                                        [traced.wall_s for _, _, _, traced, _ in paired_runs])
    for name in ("bell.partition_tuples.calls", "jets.exp_series.calls",
                 "engine.quad.calls", "engine.quad.integrand_evals",
                 "exprs.eval.calls", "models.solve_ivp.nfev", "jets.picard_passes",
                 "engine.directions"):
        assert per_layer[name] > 0, name
    assert per_layer["cli.import_scipy_s"] > 0
    assert per_layer["models.errors"] >= 1  # the tilted-line flow blow-up
    assert 0 < per_layer["trace.unattributed_s"] < SELF_TIME_SLACK_S * len(paired_runs)


# ------------------------------------------------------------ contract

def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(names) == sorted(run.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"]), m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_each_call_is_scaled_by_the_probes_around_it(tmp_path, monkeypatch):
    probes = iter([0.1, 0.3, 0.2, 0.05])
    monkeypatch.setattr(run, "probe", lambda: next(probes))
    runner = run.Runner(ROOT, str(tmp_path))
    calls = [runner.run(["-c", "pass"]) for _ in range(3)]
    ref = run.REFERENCE_PROBE_S
    assert [c.host_speed for c in calls] == [2 * ref / 0.4, 2 * ref / 0.5, 2 * ref / 0.25]
    outcomes = [run.Outcome({"id": f"noop{i}"}, c, check.Verdict()) for i, c in enumerate(calls)]
    assert run.timings(calls, [outcomes])["wall_s"] == math.fsum(
        c.wall_s * c.host_speed for c in calls)
    assert run.timings(calls, [outcomes], scaled=False)["wall_s"] == math.fsum(
        c.wall_s for c in calls)
