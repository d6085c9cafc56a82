"""The oracle's integrators reproduce scipy bit for bit.

scipy is imported here only, as the reference; lapasym never imports it.
The DOP853 port is scipy's ``solve_ivp``, and a solve extended or
branched to a further end time must give the bits of a fresh solve to
that end time.  The QAG port is scipy's ``quad``, which is QAGS, on
smooth peaks and on the oracle's own radial integrands, where QAGS ends
at its error bound without extrapolating.  QAG's other two endings, at
``LIMIT`` intervals and at an interval too small to split, are checked
against exact integrals, and between them these tests run every
statement of the bisection.
"""

import ast
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from lapasym import cli, integrators

integrate = pytest.importorskip("scipy.integrate")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def hexes(*values):
    return tuple(float(v).hex() for v in values)


def vector(fn):
    # the port calls its integrand once per rule, on the rule's abscissae
    return lambda xs: [fn(x) for x in xs]


def scipy_quad(fn, a, b, tol, **kwargs):
    return integrate.quad(fn, a, b, epsabs=tol, epsrel=integrators.EPSREL,
                          limit=integrators.LIMIT, **kwargs)


def same_quad(fn, a, b, tol):
    expect = scipy_quad(fn, a, b, tol, full_output=1)
    got = integrators.quad(vector(fn), a, b, epsabs=tol)
    assert hexes(*got) == hexes(*expect[:2])
    # QUADPACK's flag, which the port does not return
    return expect[3] if len(expect) > 3 else None


@pytest.mark.parametrize("k", [30.0, 100.0, 1e3, 1e4])
def test_quad_gaussian_peaks(k):
    # a peak at 0 of width 1/sqrt(k), inside the interval and, as in the
    # oracle's integrands, at the start of a radius
    def peak(x):
        return math.exp(-k * x * x) * (1.0 + 0.25 * x)

    same_quad(peak, -1.0, 1.0, 5e-11)
    same_quad(peak, 0.0, 1.0, 1e-12)


def test_quad_calls_its_integrand_once_per_rule():
    # one call per 21-point rule, on a tuple of its abscissae in the order
    # in which dqk21 evaluates them: scipy's calls, one at a time
    def peak(x):
        return math.exp(-100.0 * x * x) * (1.0 + 0.25 * x)

    one_by_one, rules = [], []
    scipy_quad(lambda x: one_by_one.append(x) or peak(x), 0.0, 1.0, 1e-12)
    integrators.quad(lambda xs: rules.append(xs) or vector(peak)(xs), 0.0, 1.0,
                     epsabs=1e-12)
    assert len(rules) > 1
    assert all(type(xs) is tuple and len(xs) == 21 for xs in rules)
    assert hexes(*(x for xs in rules for x in xs)) == hexes(*one_by_one)


# the oracle's commands: a d = 1 verify, the golden d = 2 verify and the
# golden d = 1 density sweep, run from the golden directory
ORACLE_COMMANDS = (
    ["verify", "--model", "builtin:sphere", "--order", "2", "--k", "30,100,1000"],
    ["verify", "--model", "sphere2_product.json", "--order", "2", "--k", "100,200,400",
     "--tol", "1e-8"],
    ["density-sweep", "--model", "sphere1_product.json", "--order", "4", "--k", "30,100,1000"],
)


def test_quad_on_the_oracles_integrands_is_scipy(capsys, monkeypatch):
    # every radial integral of the oracle's commands, with the values its
    # integrand gave at each abscissa, is scipy's to the bit
    calls = []
    quad = integrators.quad

    def recording(fn, a, b, epsabs):
        values = {}

        def tabulated(xs):
            fx = [float(v) for v in fn(xs)]
            values.update(zip(xs, fx))
            return fx

        got = quad(tabulated, a, b, epsabs=epsabs)
        calls.append((values, a, b, epsabs, got))
        return got

    monkeypatch.setattr(integrators, "quad", recording)
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    for argv in ORACLE_COMMANDS:
        assert cli.main(argv) == 0 and capsys.readouterr().err == ""
    # one per k of the d = 1 verify, two levels per k of the d = 2 verify,
    # and one per k and density of the sweep
    assert len(calls) == 3 + 6 + 6
    for values, a, b, epsabs, got in calls:
        assert hexes(*got) == hexes(*scipy_quad(values.__getitem__, a, b, epsabs))


def test_quad_takes_one_value_for_a_whole_rule():
    assert integrators.quad(lambda xs: 2.0, 0.0, 3.0, epsabs=1e-12)[0] == 6.0


def test_quad_roundoff():
    # the integral cancels to about 1e-13 of the integrand's size
    message = same_quad(lambda x: 1e3 * math.cos(x), -math.pi / 2, 3 * math.pi / 2, 1e-12)
    assert "roundoff" in message


def bisected(monkeypatch, fn, a, b, tol):
    """``quad``'s ``(value, abserr)`` and its intervals ``(a, b, area, error)``
    in their slots, each bisection checked to take the interval with the
    largest error, the first slot on a tie, and to give its slot to the
    half with the larger error."""
    rules = []
    qk21 = integrators._qk21

    def recording(f, lo, hi):
        out = qk21(f, lo, hi)
        rules.append((lo, hi, *out[:2]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(integrators, "_qk21", recording)
        value, abserr = integrators.quad(vector(fn), a, b, epsabs=tol)
    slots = rules[:1]
    for left, right in zip(rules[1::2], rules[2::2]):
        errors = [error for *_, error in slots]
        i = errors.index(max(errors))
        assert slots[i][:2] == (left[0], right[1]) and left[1] == right[0]
        slots[i], new = (right, left) if right[3] > left[3] else (left, right)
        slots.append(new)
    assert len(rules) % 2 == 1
    return value, abserr, slots


def assert_interval_sum_within_error(value, abserr, slots, a, b, exact):
    # the intervals tile [a, b]; the value is their sum in slot order, and
    # the error sum, kept as it runs, bounds the distance to the integral
    ends = sorted((lo, hi) for lo, hi, *_ in slots)
    assert ends[0][0] == a and ends[-1][1] == b
    assert all(hi == lo for (_, hi), (lo, _) in zip(ends, ends[1:]))
    total = 0.0
    for *_, area, _ in slots:
        total = total + area
    assert value == total
    assert abserr == pytest.approx(math.fsum(error for *_, error in slots), rel=1e-9)
    assert abs(value - exact) <= abserr


def test_quad_ends_at_the_limit(monkeypatch):
    # cos(300 x^2) oscillates too fast for LIMIT intervals to meet 1e-12
    # (Fresnel: the integral over [0, 3] is sqrt(pi / 600) C(3 sqrt(600 / pi)))
    special = pytest.importorskip("scipy.special")
    exact = 2 * math.sqrt(math.pi / 600) * special.fresnel(3 * math.sqrt(600 / math.pi))[1]
    value, abserr, slots = bisected(monkeypatch, lambda x: math.cos(300.0 * x * x),
                                    -3.0, 3.0, 1e-12)
    assert len(slots) == integrators.LIMIT and abserr > 1e-12
    assert_interval_sum_within_error(value, abserr, slots, -3.0, 3.0, exact)


def test_quad_ends_at_an_interval_too_small_to_split(monkeypatch):
    # |x - 1/pi|^(-1/2) has its singularity inside [0, 1]: the interval
    # next to it is bisected until its width is about 100 machine epsilons
    # of its position, before the error sum meets the bound
    pole = 1 / math.pi
    exact = 2 * (math.sqrt(pole) + math.sqrt(1 - pole))
    value, abserr, slots = bisected(
        monkeypatch, lambda x: abs(x - pole) ** -0.5 if x != pole else 0.0, 0.0, 1.0, 1e-300)
    assert len(slots) < integrators.LIMIT and abserr > integrators.EPSREL * value
    widths = sorted(hi - lo for lo, hi, *_ in slots)
    assert widths[0] <= 1e3 * np.spacing(pole)
    assert_interval_sum_within_error(value, abserr, slots, 0.0, 1.0, exact)


def statements_run(call):
    """``(function, line number)`` of every line of ``integrators`` that ``call()`` runs."""
    run = set()

    def trace(frame, event, _arg):
        if frame.f_code.co_filename != integrators.__file__:
            return None
        if event == "line":
            run.add((frame.f_code.co_name, frame.f_lineno))
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(outer)
    return run


def test_quad_tests_run_every_statement_of_qag(monkeypatch):
    # no statement of the bisection is out of reach of every input
    source = inspect.getsource(integrators)
    qag, = (node for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == "_qag")
    statements = {("_qag", node.lineno) for stmt in qag.body[1:]  # less the docstring
                  for node in ast.walk(stmt) if isinstance(node, ast.stmt)}

    def quad_tests():
        for k in (30.0, 1e4):
            test_quad_gaussian_peaks(k)
        test_quad_takes_one_value_for_a_whole_rule()
        test_quad_roundoff()
        test_quad_ends_at_the_limit(monkeypatch)
        test_quad_ends_at_an_interval_too_small_to_split(monkeypatch)

    missed = statements - statements_run(quad_tests)
    lines = source.splitlines()
    assert not missed, [lines[line - 1].strip() for _, line in sorted(missed)]


def same_flow(fun, span, y0, solve=None):
    expect = integrate.solve_ivp(fun, (integrators.T0, span), y0, method="DOP853",
                                 dense_output=True, rtol=integrators.RTOL,
                                 atol=integrators.ATOL)
    got = (solve or integrators.Dop853(fun, y0)).until(span)
    assert (got.success, got.message, got.nfev) == (expect.success, expect.message,
                                                   expect.nfev)
    assert got.t.tobytes() == expect.t.tobytes()
    assert got.y.tobytes() == expect.y.tobytes()
    if got.success:
        for rho in np.linspace(0.0, span, 101):
            assert got.sol(rho).tobytes() == expect.sol(rho).tobytes()
        # step boundaries belong to the earlier step
        for rho in got.t[1:-1:7]:
            assert got.sol(rho).tobytes() == expect.sol(rho).tobytes()
    return got


def test_dense_solution_at_an_array_of_times_is_the_scalar_calls_row_by_row():
    flow = integrators.Dop853(lambda s, y: np.array([y[1], -y[0] - 0.1 * y[0] ** 3]),
                              np.array([1.0, 0.0])).until(5.0)
    times = np.concatenate([np.linspace(0.0, 5.0, 37), flow.t, [5.0, 0.0, 2.5]])
    rows = flow.sol(times)
    assert rows.shape == (len(times), 2)
    for t, row in zip(times, rows):
        assert row.tobytes() == flow.sol(t).tobytes()
    assert flow.sol(times[:87].reshape(29, 3)).tobytes() == rows[:87].tobytes()


def test_dop853_extended_to_each_end_time_is_scipy_at_that_end_time():
    # a longer end time continues the trunk; a shorter one branches off it
    def fun(s, y):
        return np.array([y[1], -y[0] - 0.1 * y[0] ** 3 + 0.2 * np.cos(s)])

    y0 = np.array([1.0, 0.0])
    solve = integrators.Dop853(fun, y0)
    for span in (1.0, 2.0, 4.0, 3.0, 0.25, 4.0, 8.0):
        same_flow(fun, span, y0, solve)


def test_dop853_scalar_state():
    same_flow(lambda s, y: -2.0 * y + np.sin(s), 3.0, np.array([1.0]))


def test_dop853_level_of_512_lanes():
    # the oracle's state: coordinates, phase and log-weight rows over the lanes
    w = np.random.default_rng(7).uniform(-1.0, 1.0, 512)

    def rhs(_s, y):
        x = y[:512]
        return np.concatenate([w * (1.0 + 0.1 * x * x), x * x, np.sin(x)])

    same_flow(rhs, 2.0, np.zeros(3 * 512))


def test_dop853_tilted_line_fails_as_scipy_does():
    # x' = 1 + 6 x^2 blows up at s = pi / (2 sqrt 6) = 0.64, inside span 1
    def rhs(_s, y):
        x = y[0]
        return np.array([1.0 + 6.0 * x * x, x + 2.0 * x ** 3, 12.0 * x])

    flow = same_flow(rhs, 1.0, np.zeros(3))
    assert not flow.success and "step size" in flow.message


def test_dop853_stops_at_a_non_finite_stage():
    # the field is infinite beyond s = 1/2; scipy would reject the steps
    # that reach past it and creep up to 1/2 until the step size underflows
    def rhs(s, _y):
        return np.array([1.0 if s < 0.5 else math.inf])

    with np.errstate(invalid="ignore"):
        flow = integrators.Dop853(rhs, np.array([0.0])).until(1.0)
    assert not flow.success and "not finite" in flow.message
    assert flow.t[-1] < 0.5 and flow.nfev < 200


FIELDS = {
    # a forced oscillator: the stages' times enter the steps
    "forced": (lambda s, y: np.array([y[1], -y[0] - 0.1 * y[0] ** 3 + 0.2 * np.cos(s)]),
               [1.0, 0.0]),
    # slow growth: a first interval no longer than 1 limits the initial step
    "slow": (lambda s, y: 0.01 * y, [1.0]),
    # infinite past s = 1/2: a solve beyond it fails at a non-finite stage
    "wall": (lambda s, y: np.array([1.0 if s < 0.5 else math.inf]), [0.0]),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(sorted(FIELDS)),
       ends=st.lists(st.floats(0.05, 4.0), min_size=1, max_size=5, unique=True),
       increasing=st.booleans())
def test_extended_solve_is_a_fresh_solve_at_every_end_time(field, ends, increasing):
    fun, y0 = FIELDS[field]
    solve = integrators.Dop853(fun, y0)
    with np.errstate(invalid="ignore"):
        for end in sorted(ends) if increasing else ends:
            got = solve.until(end)
            fresh = integrators.Dop853(fun, y0).until(end)
            assert (got.success, got.message, got.nfev) == (fresh.success, fresh.message,
                                                           fresh.nfev)
            assert got.t.tobytes() == fresh.t.tobytes()
            assert got.y.tobytes() == fresh.y.tobytes()
            if got.success:
                times = np.concatenate([np.linspace(0.0, end, 23), fresh.t])
                assert got.sol(times).tobytes() == fresh.sol(times).tobytes()


def test_initial_step_limited_by_the_first_interval_starts_afresh(monkeypatch):
    # "slow" asks for a first trial step of 1 + 2**-52 (0.01 d0 / d1 rounds
    # up at RTOL and ATOL), which a first interval of at most 1 cuts short,
    # so end times up to 1 each start afresh and the others share one trunk
    starts = []
    initial_step = integrators._initial_step

    def counting(*args):
        starts.append(args[2])
        return initial_step(*args)

    monkeypatch.setattr(integrators, "_initial_step", counting)
    fun, y0 = FIELDS["slow"]
    solve = integrators.Dop853(fun, y0)
    for end in (0.5, 0.75, 2.0, 1.5, 4.0, 0.5, 1.0):
        solve.until(end)
    assert starts == [0.5, 0.75, 2.0, 1.0]


# ------------------------------------------------------------------ the float carrier
#
# A Vector state is solved on Python floats, each sum rounded once (fsum).
# BLAS sums the numpy carrier's stages its own way, so the two differ in
# the last bits, and DOP853's error estimate, a sum that cancels to about
# 1e-6 of its terms, lifts that to about 1e-7 in the next step size: the two
# carriers take their own steps, and on the polynomial flows (gaussian,
# quartic), whose error estimate is rounding noise, their own number of
# steps too.  What they share is the solution.

TILTED_LINE = {
    "name": "tilted-line", "group_dim": 1, "chart_dim": 1,
    "phi": ["*", "w0", ["+", "x0", ["*", "2", ["pow", "x0", 3]]]],
    "flow_field": [["*", "w0", ["+", "1", ["*", "6", ["pow", "x0", 2]]]]],
    "laplacian_phi": ["*", "w0", ["*", "12", "x0"]],
    "zero_points": [[0]], "orbit_volume": "1",
}
GOLDEN = Path(__file__).resolve().parent / "golden"
ONE_DIMENSIONAL = ["builtin:sphere", "builtin:gaussian", "builtin:quartic",
                   "sphere1_product.json", "line_poly.json", "tilted-line"]


def one_dimensional_model(source):
    from lapasym.models import model_from_config, resolve_model

    if source == "tilted-line":
        return model_from_config(TILTED_LINE)
    return resolve_model(source if source.startswith("builtin:") else str(GOLDEN / source))


def numpy_carrier_flow(model, directions, x0):
    """The oracle's flow of ``directions`` on numpy lanes, as it solves
    group dimensions 2 and 3, with the maps on numpy arrays."""
    chart, n = model.chart_dim, len(directions)
    omega = tuple(np.array(column, dtype=float) for column in zip(*directions))

    def rhs(_s, y):
        coords = tuple(y.reshape(-1, n)[:chart])
        values = (*model.flow_field(omega, coords), model.phi(omega, coords),
                  model.laplacian_phi(omega, coords))
        out = np.empty((len(values), n))
        for row, v in enumerate(values):
            out[row] = v
        return out.ravel()

    return integrators.Dop853(rhs, np.repeat([float(c) for c in x0] + [0.0, 0.0], n))


@pytest.mark.parametrize("source", ONE_DIMENSIONAL)
def test_float_carrier_solves_the_oracles_flows_as_the_numpy_carrier_does(source):
    # every flow the oracle solves in group dimension 1, of both directions
    # to the spans 1, 2, 4 and 8: where the numpy carrier fails, the float
    # carrier fails with the same message, SciPy's; where it succeeds, so
    # does the float carrier, and their dense solutions agree within 1e-10
    # of max(1, |y|), at the numpy carrier's accepted times and in between
    from lapasym import oracle
    from lapasym.errors import QuadratureError
    from lapasym.vector import Vector

    model = one_dimensional_model(source)
    directions, x0 = ((1,), (-1,)), model.zero_points[0]
    floats = oracle._augmented_flow(model, directions, x0)
    arrays = numpy_carrier_flow(model, directions, x0)
    failures = 0
    for span in (1.0, 2.0, 4.0, 8.0):
        with np.errstate(all="ignore"):
            expect = arrays.until(span)
        if not expect.success:
            failures += 1
            assert expect.message == integrators._TOO_SMALL_STEP
            with pytest.raises(QuadratureError, match=f"{model.name}: {expect.message}$"):
                floats(span)
            continue
        got = floats(span)
        assert isinstance(got.end, Vector) and got.t[-1] == span
        times = [*expect.t.tolist(), *np.linspace(0.0, span, 65).tolist()]
        y = expect.sol(times)
        assert np.all(np.abs(np.array(got.sol(times)) - y) <= 1e-10 * np.maximum(1.0, np.abs(y)))
    # the tilted line blows up inside span 1, line_poly's flow past span 2
    assert failures == {"line_poly.json": 2, "tilted-line": 4}.get(source, 0)


def test_float_carrier_counts_an_overflow_error_as_a_stage_that_is_not_finite():
    # past s = 1/2 the numpy field is infinite, and the float field raises
    # as Python's float power does: both stop at the first trial step past it
    from lapasym.vector import Vector

    with np.errstate(invalid="ignore"):
        expect = integrators.Dop853(lambda s, y: np.array([1.0 if s < 0.5 else math.inf]),
                                    np.array([0.0])).until(1.0)
    got = integrators.Dop853(lambda s, y: [1.0 if s < 0.5 else 10.0 ** 400],
                             Vector([0.0])).until(1.0)
    for flow in (expect, got):
        assert not flow.success and flow.message.endswith("has a stage that is not finite.")
        assert flow.t[-1] < 0.5 and flow.nfev < 200
