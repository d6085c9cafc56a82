"""The oracle's integrators reproduce scipy bit for bit.

scipy is imported here only, as the reference; lapasym never imports it.
A DOP853 solve extended or branched to a further end time must give the
bits of a fresh solve to that end time.
"""

import inspect
import math
import sys

import numpy as np
import pytest

from lapasym import integrators

integrate = pytest.importorskip("scipy.integrate")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def hexes(*values):
    return tuple(float(v).hex() for v in values)


def vector(fn):
    # the port calls its integrand once per rule, on the rule's abscissae
    return lambda xs: [fn(x) for x in xs.tolist()]


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
    # one call per 21-point rule, on a float64 array of its abscissae in the
    # order in which dqk21 evaluates them: scipy's calls, one at a time
    def peak(x):
        return math.exp(-100.0 * x * x) * (1.0 + 0.25 * x)

    one_by_one, rules = [], []
    scipy_quad(lambda x: one_by_one.append(x) or peak(x), 0.0, 1.0, 1e-12)
    integrators.quad(lambda xs: rules.append(xs.copy()) or vector(peak)(xs), 0.0, 1.0,
                     epsabs=1e-12)
    assert len(rules) > 1
    assert all(xs.dtype == np.float64 and xs.shape == (21,) for xs in rules)
    assert hexes(*np.concatenate(rules)) == hexes(*one_by_one)


def test_quad_takes_one_value_for_a_whole_rule():
    assert integrators.quad(lambda xs: 2.0, 0.0, 3.0, epsabs=1e-12)[0] == 6.0


def test_quad_endpoint_singularity_extrapolates(monkeypatch):
    # x^(-1/2) at 0 needs the epsilon algorithm
    calls = []
    qelg = integrators._qelg

    def counting(*args):
        calls.append(args[0])
        return qelg(*args)

    monkeypatch.setattr(integrators, "_qelg", counting)
    assert same_quad(lambda x: x ** -0.5 if x > 0 else 0.0, 0.0, 1.0, 1e-12) is None
    assert len(calls) >= 3


def test_quad_oscillatory_reaches_limit():
    message = same_quad(lambda x: math.cos(300.0 * x * x), -3.0, 3.0, 1e-12)
    assert "maximum number of subdivisions (400)" in message


def test_quad_roundoff():
    # the integral cancels to about 1e-13 of the integrand's size
    message = same_quad(lambda x: 1e3 * math.cos(x), -math.pi / 2, 3 * math.pi / 2, 1e-12)
    assert "roundoff" in message


def statements_run(call):
    """``(function, statement)`` of every line of ``integrators`` that ``call()`` runs."""
    source = inspect.getsource(integrators).splitlines()
    run = set()

    def trace(frame, event, _arg):
        if frame.f_code.co_filename != integrators.__file__:
            return None
        if event == "line":
            run.add((frame.f_code.co_name, source[frame.f_lineno - 1].strip()))
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(outer)
    return run


# QUADPACK paths that the oracle's smooth integrands do not take, each with
# an integrand that takes it, a tolerance and the flag scipy reports
QUAD_PATHS = {
    # the area all but cancels, so bisecting next to the jump stops
    # gaining (iroff1) until roundoff ends the loop (ier = 2), and the
    # epsilon table never gets going: no extrapolated result is kept
    "sign-jump": (lambda x: 1.0 if x > 0.5 + 1e-3 / (3 * math.pi) else -1.0, 0.0, 1.0, 1e-300,
                  "roundoff", {("_qags", "iroff1 += 1"), ("_qags", "ier = 2"),
                               ("_qags", "noext = True"),
                               ("_finish", "return _sum_intervals(rlist, last), errsum")}),
    # roundoff while extrapolating (iroff2, ierro = 3) and errors that
    # grow when bisected (iroff3); the sum over the intervals beats the
    # extrapolated result once its error carries the correction
    "x-sin-1/x": (lambda x: x * math.sin(1.0 / x) if x > 0 else 0.0, 0.0, 1.0, 1e-300,
                  "maximum number of subdivisions", {
                      ("_qags", "iroff2 += 1"), ("_qags", "iroff3 += 1"),
                      ("_qags", "ierro = 3"), ("_finish", "abserr = abserr + correc")}),
    # the interval next to the singularity shrinks to machine precision
    "inverse-sqrt-at-1/pi": (lambda x: abs(x - 1 / math.pi) ** -0.5 if x != 1 / math.pi
                             else 0.0, 0.0, 1.0, 1e-300,
                             "bad integrand behavior", {("_qags", "ier = 4")}),
    # extrapolation stops improving on an almost divergent power
    "x^-0.95": (lambda x: x ** -0.95 if x > 0 else 0.0, 0.0, 1.0, 1e-300,
                "does not converge", {("_qags", "ier = 5")}),
    # three successive areas agree to machine accuracy
    "jump-at-1/3": (lambda x: 1.0 if x > 1 / 3 else 0.0, 0.0, 1.0, 1e-12, None,
                    {("_qelg", "abserr = err2 + err3")}),
    # logarithmically slow convergence fills the epsilon table to limexp
    "1/(x log^2 x)": (lambda x: 1.0 / (x * math.log(x) ** 2) if x > 0 else 0.0, 0.0, 0.5,
                      1e-300, "maximum number of subdivisions",
                      {("_qelg", "n = 2 * (limexp // 2) - 1")}),
}


@pytest.mark.parametrize("name", sorted(QUAD_PATHS))
def test_quad_paths_off_the_oracle_are_scipy(name):
    fn, a, b, tol, flag, statements = QUAD_PATHS[name]
    messages = []
    with np.errstate(all="ignore"):
        run = statements_run(lambda: messages.append(same_quad(fn, a, b, tol)))
    message, = messages
    assert statements <= run
    assert (message is None) if flag is None else (flag in message)


def test_quad_ending_on_the_sum_over_the_intervals():
    # x sin(1/x) reaches _finish with an extrapolated result whose error,
    # with its correction, is the worse one: the sum over the intervals wins
    fn, a, b, tol = QUAD_PATHS["x-sin-1/x"][:4]
    info = scipy_quad(fn, a, b, tol, full_output=1)[2]
    total = 0.0
    for area in info["rlist"][:info["last"]]:
        total = total + area
    assert integrators.quad(vector(fn), a, b, epsabs=tol)[0] == total


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

