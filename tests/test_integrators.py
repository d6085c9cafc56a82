"""The oracle's integrators reproduce scipy bit for bit.

scipy is imported here only, as the reference; lapasym never imports it.
"""

import math

import numpy as np
import pytest

from lapasym import integrators

integrate = pytest.importorskip("scipy.integrate")


def hexes(*values):
    return tuple(float(v).hex() for v in values)


def same_quad(fn, a, b, tol):
    expect = integrate.quad(fn, a, b, epsabs=tol, epsrel=2e-14, limit=400, full_output=1)
    got = integrators.quad(fn, a, b, epsabs=tol, epsrel=2e-14, limit=400)
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


def same_flow(fun, span, y0):
    expect = integrate.solve_ivp(fun, (0.0, span), y0, method="DOP853", dense_output=True,
                                 rtol=1e-13, atol=1e-14)
    got = integrators.dop853(fun, 0.0, span, y0, rtol=1e-13, atol=1e-14)
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
        flow = integrators.dop853(rhs, 0.0, 1.0, np.array([0.0]), rtol=1e-13, atol=1e-14)
    assert not flow.success and "not finite" in flow.message
    assert flow.t[-1] < 0.5 and flow.nfev < 200
