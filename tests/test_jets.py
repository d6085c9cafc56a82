"""Tests for truncated series arithmetic and jet transport.

Closed-form jets (tanh, log cosh, composed squares) are cross-checked
against sympy series expansions, which share no code with the package.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lapasym import jets
from lapasym.bell import complete_bell, generalized_binomial, series_power_coefficient
from lapasym.crosscheck import directional_derivative, iterated_flow_derivatives
from lapasym.errors import DomainError, JetEvaluationError, OrderMismatchError
from lapasym.jets import TruncatedSeries, exp_series, ode_jet_transport
from lapasym.models import builtin_sphere_model
from lapasym.vector import Vector


def sympy_jet(expr, var, order):
    # Taylor coefficients of expr about 0 as Fractions
    poly = sympy.series(expr, var, 0, order + 1).removeO()
    return [
        Fraction(str(sympy.nsimplify(poly.coeff(var, p))))
        for p in range(order + 1)
    ]


def rational_series(rng, order, zero_constant=False):
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
    ]
    if zero_constant:
        coeffs[0] = Fraction(0)
    return TruncatedSeries(coeffs)


# ---------------------------------------------------------------- arithmetic

def test_basic_arithmetic_exact():
    a = TruncatedSeries([Fraction(1), Fraction(2), Fraction(3)])
    b = TruncatedSeries([Fraction(0), Fraction(1, 2), Fraction(-1)])
    assert (a + b).coefficients == (Fraction(1), Fraction(5, 2), Fraction(2))
    assert (a - b).coefficients == (Fraction(1), Fraction(3, 2), Fraction(4))
    assert (a * b).coefficients == (Fraction(0), Fraction(1, 2), Fraction(0))
    assert (3 * a).coefficients == (Fraction(3), Fraction(6), Fraction(9))
    assert (a + 5).coefficient(0) == Fraction(6)


def test_product_truncates_to_common_order():
    a = TruncatedSeries([1, 1, 1, 1])
    b = TruncatedSeries([1, -1])
    assert (a * b).order == 1
    assert (a * b).coefficients == (1, 0)


def test_addition_order_mismatch_is_an_error():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([1, 2])
    with pytest.raises(OrderMismatchError):
        a + b
    with pytest.raises(OrderMismatchError):
        a - b


def test_power_and_reciprocal():
    one_plus_t = TruncatedSeries([Fraction(1), Fraction(1), Fraction(0), Fraction(0)])
    cube = one_plus_t ** 3
    assert cube.coefficients == (1, 3, 3, 1)
    inv = 1 / one_plus_t
    assert inv.coefficients == (1, -1, 1, -1)
    assert (one_plus_t ** -2).coefficients == (1, -2, 3, -4)


def binary_power(base, exponent):
    """``base ** exponent`` by binary powering afresh, with no memo."""
    result = TruncatedSeries.constant(1, base.order)
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base if exponent > 1 else base
        exponent >>= 1
    return result


def coefficient_bits(series):
    # exact entries as they are, floats and float lanes by their hex
    return [(type(c), [x.hex() for x in c.tolist()]) if isinstance(c, np.ndarray)
            else (Vector, [x.hex() for x in c]) if isinstance(c, Vector)
            else (float, c.hex()) if isinstance(c, float) else (type(c), c)
            for c in series.coefficients]


special_floats = st.one_of(st.floats(-4, 4),
                           st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]))
ring_entries = {
    "int": st.integers(-3, 3),
    "fraction": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    "float": special_floats,
    "lanes": st.lists(special_floats, min_size=3, max_size=3).map(
        lambda values: np.array(values).view(jets.Lanes)),
    "vector": st.lists(special_floats, min_size=3, max_size=3).map(Vector),
}


@st.composite
def power_bases(draw):
    entries = ring_entries[draw(st.sampled_from(sorted(ring_entries)))]
    return TruncatedSeries(draw(st.lists(entries, min_size=1, max_size=6)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(base=power_bases(), exponents=st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_remembered_powers_are_bit_identical_to_binary_powering(base, exponents):
    with np.errstate(invalid="ignore", over="ignore"):
        for e in exponents:
            assert coefficient_bits(base ** e) == coefficient_bits(binary_power(base, e)), e


def test_powers_of_one_jet_share_their_products(monkeypatch):
    products = []
    multiply = TruncatedSeries.__mul__

    def counting(self, other):
        if isinstance(other, TruncatedSeries):
            products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting)
    x = TruncatedSeries([Fraction(1, 3), 1], order=6)
    for e in range(2, 8):
        x ** e
    # the squares x**2 and x**4, then one product for each of x**1 .. x**7;
    # binary powering afresh takes 2 + 3 + 3 + 4 + 4 + 5 = 21
    assert len(products) == 9


def quadrature(rate, order):
    # the integral from 0 of rate(t): the second coordinate of the flow
    # (t, y)' = (1, rate(t)) from (0, 0), which the field does not read
    return ode_jet_transport(lambda c: [1, rate(c[0])], [0, 0], order)[1]


def test_integrate_and_differentiate():
    integ = quadrature(lambda t: Fraction(2) + Fraction(3) * t + Fraction(4) * t * t, 3)
    assert integ.order == 3
    assert integ.coefficients == (0, Fraction(2), Fraction(3, 2), Fraction(4, 3))
    # term-by-term derivative of the antiderivative gives the rate back
    assert tuple(p * c for p, c in enumerate(integ.coefficients))[1:] == (2, 3, 4)


# ---------------------------------------------------------------- elementary maps

def test_exp_series_of_plain_variable():
    h = TruncatedSeries([Fraction(0), Fraction(1)], order=6)
    u = exp_series(h)
    expect = [Fraction(1, sympy.factorial(p)) for p in range(7)]
    assert list(u.coefficients) == [Fraction(e) for e in expect]


def bell_exp_reference(h):
    # coefficient j of exp(h) is exp(h(0)) * B_j(h'(0), ..., h^(j)(0)) / j!
    args = [math.factorial(p) * h.coefficient(p) for p in range(1, h.order + 1)]
    lead = jets.exp(h.coefficient(0))
    return [lead * complete_bell(j, args[:j]) * Fraction(1, math.factorial(j))
            for j in range(h.order + 1)]


def test_exp_series_dual_paths_agree_exactly():
    rng = random.Random(31)
    for _ in range(10):
        h = rational_series(rng, 8, zero_constant=True)
        assert list(exp_series(h).coefficients) == bell_exp_reference(h)


def test_exp_series_nonzero_constant_float_paths():
    rng = random.Random(32)
    h = TruncatedSeries([0.3] + [rng.uniform(-1, 1) for _ in range(7)])
    for x, y in zip(exp_series(h).coefficients, bell_exp_reference(h)):
        assert x == pytest.approx(y, rel=1e-14, abs=1e-15)


def test_exp_series_times_exp_of_negation_is_one():
    rng = random.Random(33)
    for _ in range(8):
        h = rational_series(rng, 7, zero_constant=True)
        prod = exp_series(h) * exp_series(-h)
        assert prod.coefficient(0) == 1
        assert all(c == 0 for c in prod.coefficients[1:])


@pytest.mark.parametrize("alpha", [Fraction(-1, 2), Fraction(-3, 2), Fraction(-7, 2),
                                   Fraction(5, 3)])
def test_rational_power_matches_binomial_sums(alpha):
    # [t^m] (1 + u)^alpha = sum_r binom(alpha, r) [t^m] u^r, u without constant term
    rng = random.Random(34)
    for _ in range(4):
        u = rational_series(rng, 9, zero_constant=True)
        tail = u.coefficients[1:]
        expect = [
            sum(generalized_binomial(alpha, r) * series_power_coefficient(m, r, tail)
                for r in range(m + 1))
            for m in range(u.order + 1)
        ]
        assert list(((1 + u) ** alpha).coefficients) == expect


def miller_with_fraction_factors(s, alpha):
    # Miller's recurrence with each factor (alpha + 1) k - n formed as a
    # Fraction, taken as its float where the coefficients are floats
    a = s.coefficients
    ring = (lambda r: r) if isinstance(a[0], Fraction) else float
    inv0 = 1 / a[0]
    out = [(s ** alpha).coefficient(0)]
    for n in range(1, s.order + 1):
        acc = 0
        for k in range(1, n + 1):
            acc = acc + ring((alpha + 1) * k - n) * a[k] * out[n - k]
        out.append(acc * (inv0 * ring(Fraction(1, n))))
    return TruncatedSeries(out)


@pytest.mark.parametrize("alpha", [Fraction(-7, 2), Fraction(-5, 2), Fraction(1, 3),
                                   Fraction(-2, 3)])
@pytest.mark.parametrize("ring", ["fraction", "float", "lanes"])
def test_rational_power_factors_are_the_fraction_formula(alpha, ring):
    rng = random.Random(35)
    coefficients = [Fraction(rng.randint(1, 9), rng.randint(1, 9))] + \
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)]
    if ring == "float":
        coefficients = [float(c) for c in coefficients]
    elif ring == "lanes":
        coefficients = [np.array([float(c), float(c) / 3, 2.5 * float(c)]).view(jets.Lanes)
                        for c in coefficients]
    s = TruncatedSeries(coefficients)
    assert coefficient_bits(s ** alpha) == coefficient_bits(miller_with_fraction_factors(s, alpha))


def test_rational_power_general_constant_term():
    s = TruncatedSeries([Fraction(4), Fraction(1, 3), Fraction(-2, 5), Fraction(7)])
    root = s ** Fraction(1, 2)
    assert root.coefficient(0) == 2.0
    for x, y in zip((root * root).coefficients, s.coefficients):
        assert x == pytest.approx(float(y), rel=1e-15, abs=1e-15)
    assert s ** Fraction(-3) == s ** -3
    with pytest.raises(TypeError):
        s ** 0.5


def test_sin_cos_sqrt_log_series_match_sympy():
    t = sympy.symbols("t")
    h = TruncatedSeries(
        [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3)], order=6
    )
    expr = t - t ** 2 / 2 + t ** 3 / 3
    for ours, ref in (
        (jets.sin(h), sympy.sin(expr)),
        (jets.cos(h), sympy.cos(expr)),
        (jets.sqrt(1 + h), sympy.sqrt(1 + expr)),
        (jets.log(1 + h), sympy.log(1 + expr)),
    ):
        assert list(ours.coefficients) == sympy_jet(ref, t, 6)


def test_scalar_dispatch_keeps_exact_zeros():
    assert jets.exp(Fraction(0)) == 1 and isinstance(jets.exp(Fraction(0)), int)
    assert jets.sin(0) == 0
    assert jets.cos(Fraction(0)) == 1
    assert jets.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert jets.log(1) == 0
    assert jets.exp(0.5) == pytest.approx(1.6487212707001282)


# ---------------------------------------------------------------- transport

def test_transport_tanh_jet():
    # z' = 1 - z^2 from 0 is tanh
    field = lambda c: [1 - c[0] ** 2]
    traj = ode_jet_transport(field, [Fraction(0)], order=7)
    got = list(traj[0].coefficients)
    assert got[:6] == [0, 1, 0, Fraction(-1, 3), 0, Fraction(2, 15)]
    t = sympy.symbols("t")
    assert got == sympy_jet(sympy.tanh(t), t, 7)


def test_transport_order_stability():
    field = lambda c: [1 - c[0] ** 2]
    low = ode_jet_transport(field, [Fraction(0)], order=4)
    high = ode_jet_transport(field, [Fraction(0)], order=9)
    assert high[0].coefficients[:5] == low[0].coefficients


def test_transport_two_dimensional_linear_system():
    # (x, y)' = (y, -x) from (1, 0) is (cos, sin(-t))... x = cos t, y = -sin t
    field = lambda c: [c[1], -1 * c[0]]
    traj = ode_jet_transport(field, [Fraction(1), Fraction(0)], order=6)
    t = sympy.symbols("t")
    assert list(traj[0].coefficients) == sympy_jet(sympy.cos(t), t, 6)
    assert list(traj[1].coefficients) == sympy_jet(-sympy.sin(t), t, 6)


def test_transport_rejects_bad_field():
    import math as pymath

    bad = lambda c: [pymath.sin(c[0])]  # math.sin cannot take a series
    with pytest.raises(JetEvaluationError):
        ode_jet_transport(bad, [0.0], order=3)
    wrong_arity = lambda c: [c[0], c[0]]
    with pytest.raises(JetEvaluationError):
        ode_jet_transport(wrong_arity, [0.0], order=3)


def picard_at_full_order(field, start, order):
    # reference: every pass at full order, until a pass changes no bit
    # (compared as coefficient_bits, which also reads lanes).  A pass is
    # start + integral of the field, formed from coefficient lists: rate
    # p - 1 times the rational 1/p, which a float or lanes meet as its float
    coords = [TruncatedSeries.constant(v, order) for v in start]
    for _ in range(order):
        new = []
        for r, x in zip(field(coords), start):
            rates = r.coefficients[:order] if isinstance(r, TruncatedSeries) \
                else [r] + [0] * (order - 1)
            new.append(TruncatedSeries(
                [0 + x, *(c * Fraction(1, p) for p, c in enumerate(rates, 1))]))
        done = list(map(coefficient_bits, new)) == list(map(coefficient_bits, coords))
        coords = new
        if done:
            break
    return coords


def test_transport_matches_full_order_picard_exactly():
    # a degree-6 rational field w * q(x), shaped like the exact-mode line models
    rng = random.Random(11)
    q = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]

    def field(c):
        acc = q[-1]
        for a in reversed(q[:-1]):
            acc = acc * c[0] + a
        return [Fraction(-3, 4) * acc]

    start = [Fraction(1, 5)]
    got = ode_jet_transport(field, start, order=19)
    assert list(got) == picard_at_full_order(field, start, 19)


def test_transport_matches_full_order_picard_bit_for_bit():
    sphere = builtin_sphere_model()
    field = lambda c: sphere.flow_field((0.7,), c)
    start = (0.0, 0.25)
    got = ode_jet_transport(field, start, order=19)
    want = picard_at_full_order(field, start, 19)
    for g, w in zip(got, want):
        assert [repr(c) for c in g.coefficients] == [repr(c) for c in w.coefficients]


def test_transport_of_a_constant_field_is_one_line():
    calls = []

    def field(c):
        calls.append(c[0].order)
        return [Fraction(3, 2)]

    got = ode_jet_transport(field, [Fraction(1, 3)], order=6)
    assert len(calls) == 1
    assert got[0] == TruncatedSeries([Fraction(1, 3), Fraction(3, 2)], order=6)
    assert list(got) == picard_at_full_order(field, [Fraction(1, 3)], 6)


def every_operation(c):
    # +, -, *, / by series and by scalars, integer powers (a negative one
    # too), a Fraction power, exp, log, sin, cos and sqrt
    x, y = c
    return [
        Fraction(1, 2) + x * y - (1 + x * x) ** -2 / 3 + jets.sin(y) * jets.cos(x) / 4,
        jets.exp(-x) * jets.sqrt(2 + y ** 2) - jets.log(3 + x) / 5
        + (1 + y * y) ** Fraction(1, 3) / 7 + x ** 3 / (2 + y) - 1 / (4 - y),
    ]


@pytest.mark.parametrize("start", [
    (Fraction(1, 3), Fraction(-1, 4)),
    (0.3, -0.25),
    (np.array([0.3, -0.5, 0.0, 0.7]).view(jets.Lanes),
     np.array([-0.25, 0.5, -0.0, 0.1]).view(jets.Lanes)),
], ids=["fraction", "float", "lanes"])
def test_every_jet_operation_transports_bit_for_bit(start):
    calls = []

    def field(c):
        calls.append(len(c))
        return every_operation(c)

    got = ode_jet_transport(field, start, order=13)
    assert len(calls) == 1
    want = picard_at_full_order(every_operation, start, 13)
    for g, w in zip(got, want):
        assert g.order == w.order == 13
        assert [repr(v.tolist() if isinstance(v, np.ndarray) else v) for v in g.coefficients] \
            == [repr(v.tolist() if isinstance(v, np.ndarray) else v) for v in w.coefficients]


# ------------------------------------------------------- nested derivatives

def test_directional_derivative_matches_sympy():
    x0s, x1s = sympy.symbols("x0 x1")
    fn_expr = x0s ** 2 * x1s + 3 * x1s
    field_expr = (x1s, x0s - x1s ** 2)

    fn = lambda p: p[0] ** 2 * p[1] + 3 * p[1]
    field = lambda p: [p[1], p[0] - p[1] ** 2]
    point = [Fraction(1, 2), Fraction(-1, 3)]

    values = iterated_flow_derivatives(fn, field, point, 3)

    expr = fn_expr
    subs = {x0s: sympy.Rational(1, 2), x1s: sympy.Rational(-1, 3)}
    for m in range(4):
        expect = Fraction(str(expr.subs(subs)))
        assert values[m] == expect
        expr = sympy.expand(
            field_expr[0] * sympy.diff(expr, x0s)
            + field_expr[1] * sympy.diff(expr, x1s)
        )


def test_directional_derivative_of_constant_is_zero():
    d = directional_derivative(lambda p: 42, lambda p: [1, 1])
    assert d([Fraction(0), Fraction(0)]) == 0


def test_flow_derivatives_match_trajectory_composition():
    # L^m f at the start point equals m! times coefficient m of f along the flow
    fn = lambda p: p[0] ** 3 - 2 * p[0] * p[1]
    field = lambda p: [p[1] + 1, p[0] * p[1] - p[0]]
    point = [Fraction(1, 3), Fraction(2, 5)]
    values = iterated_flow_derivatives(fn, field, point, 5)
    traj = ode_jet_transport(field, point, order=5)
    along = fn(traj)
    for m in range(6):
        assert values[m] == math.factorial(m) * along.coefficient(m)


# ---------------------------------------------------------------- arrays

@pytest.mark.parametrize("name", ["exp", "sin", "cos", "sqrt", "log"])
def test_elementary_maps_act_elementwise_on_arrays(name):
    np = pytest.importorskip("numpy")
    values = [0.25, 0.5, 1.5, 3.0]
    result = getattr(jets, name)(np.array(values))
    assert isinstance(result, np.ndarray) and result.dtype == float
    assert result.tolist() == getattr(np, name)(np.array(values)).tolist()
    for got, x in zip(result.tolist(), values):
        assert got == pytest.approx(getattr(math, name)(x), rel=1e-15)
    # exact constants times an array come as an object array; it computes as floats
    mixed = np.array([Fraction(1, 4), 0.5], dtype=object)
    assert getattr(jets, name)(mixed).tolist() == getattr(np, name)([0.25, 0.5]).tolist()
    # scalars keep their exact and math-library results
    assert getattr(jets, name)(0.7) == getattr(math, name)(0.7)


def test_elementary_maps_keep_exact_scalars():
    assert jets.exp(0) == 1 and isinstance(jets.exp(0), int)
    assert jets.sin(Fraction(0)) == 0 and jets.cos(0) == 1 and jets.log(1) == 0
    assert jets.sqrt(4) == 2 and jets.sqrt(Fraction(4, 9)) == Fraction(2, 3)
    series = TruncatedSeries([Fraction(0), Fraction(1)], order=4)
    assert jets.exp(series) == exp_series(series)
    # an object array as a series lead computes as its entries do, so exact
    # entries stay exact
    np = pytest.importorskip("numpy")
    lanes = np.array([4, Fraction(4, 9)], dtype=object)
    assert jets.sqrt(TruncatedSeries([lanes, 1])).coefficient(0).tolist() == [2, Fraction(2, 3)]


def test_array_domain_errors():
    np = pytest.importorskip("numpy")
    from lapasym.errors import DomainError

    # scalars, numeric arrays, lanes and object arrays alike
    for value in (-1, -1e-3, np.array([1.0, -1e-3]), np.array([1.0, -1e-3]).view(jets.Lanes),
                  np.array([1, Fraction(-1, 3)], dtype=object)):
        with pytest.raises(DomainError, match="square root of a negative value"):
            jets.sqrt(value)
    for value in (0, 0.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]).view(jets.Lanes),
                  np.array([1, Fraction(-1, 3)], dtype=object)):
        with pytest.raises(DomainError, match="logarithm of a nonpositive value"):
            jets.log(value)
    # with numpy loaded, scalars still take the math library and lanes stay lanes
    assert jets.sqrt(Fraction(4, 9)) == Fraction(2, 3) and jets.log(1) == 0
    lanes = np.array([0.25, 2.0]).view(jets.Lanes)
    for fn, want in ((jets.sqrt, [0.5, math.sqrt(2.0)]),
                     (jets.log, [math.log(0.25), math.log(2.0)])):
        got = fn(lanes)
        assert isinstance(got, jets.Lanes) and got.tolist() == want


# ---------------------------------------------------------------- array coefficients

def test_array_times_series_is_a_series_of_float_arrays():
    np = pytest.importorskip("numpy")
    series = TruncatedSeries([0, 1 / 3, 2.5])
    lanes = np.array([0.5, -1.25, 3.0])
    for product in (lanes * series, series * lanes):
        assert isinstance(product, TruncatedSeries)
        for p, c in enumerate(product.coefficients):
            assert isinstance(c, np.ndarray) and c.dtype == np.float64
            assert [x.hex() for x in c.tolist()] == \
                [(x * series.coefficient(p)).hex() for x in lanes.tolist()]


def test_lanes_compute_as_python_floats():
    np = pytest.importorskip("numpy")
    rng = random.Random(11)
    values = [rng.uniform(0.05, 9.0) for _ in range(2000)]
    lanes = np.array(values).view(jets.Lanes)
    third = Fraction(1, 3)
    # a Fraction meets the lanes as its float; numpy's own exp, log and
    # power (and the square, square root and reciprocal that ndarray's **
    # picks for some exponents) round some of these 2000 values
    # differently from math and Python's float power
    for got, want in ((third * lanes, [third * x for x in values]),
                      (lanes + third, [x + third for x in values]),
                      (lanes / third, [x / third for x in values]),
                      (jets.exp(lanes), [math.exp(x) for x in values]),
                      (jets.log(lanes), [math.log(x) for x in values]),
                      (jets.sin(lanes), [math.sin(x) for x in values]),
                      (jets.cos(lanes), [math.cos(x) for x in values]),
                      (lanes ** 3, [x ** 3 for x in values]),
                      (lanes ** 2, [x ** 2 for x in values]),
                      (lanes ** -1, [x ** -1 for x in values]),
                      (lanes ** 0.5, [x ** 0.5 for x in values])):
        assert isinstance(got, jets.Lanes) and got.dtype == np.float64
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_reflected_powers_of_lanes_go_lane_by_lane():
    np = pytest.importorskip("numpy")
    rng = random.Random(13)
    values = [rng.uniform(-30.0, 30.0) for _ in range(2000)]
    lanes = np.array(values).view(jets.Lanes)
    third = Fraction(1, 3)
    # numpy's vectorized power rounds some of these 2000 differently from
    # Python's float power, for both bases
    for got, want in ((2 ** lanes, [2 ** x for x in values]),
                      (third ** lanes, [float(third) ** x for x in values])):
        assert isinstance(got, jets.Lanes) and got.dtype == np.float64
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


def test_vectors_compute_as_python_floats():
    rng = random.Random(17)
    values = [rng.uniform(0.05, 9.0) for _ in range(2000)]
    vector = Vector(values)
    third = Fraction(1, 3)
    # a Fraction meets the lanes as its float, and every function and
    # power goes lane by lane through math and Python's float power
    for got, want in ((third * vector, [third * x for x in values]),
                      (vector + third, [x + third for x in values]),
                      (vector - Vector(values[::-1]), [x - y for x, y in zip(values, values[::-1])]),
                      (vector / third, [x / third for x in values]),
                      (2 / vector, [2 / x for x in values]),
                      (-vector, [-x for x in values]),
                      (jets.exp(vector), [math.exp(x) for x in values]),
                      (jets.log(vector), [math.log(x) for x in values]),
                      (jets.sin(vector), [math.sin(x) for x in values]),
                      (jets.cos(vector), [math.cos(x) for x in values]),
                      (jets.sqrt(vector), [math.sqrt(x) for x in values]),
                      (vector ** 3, [x ** 3 for x in values]),
                      (vector ** -1, [x ** -1 for x in values]),
                      (vector ** 0.5, [x ** 0.5 for x in values]),
                      (2 ** vector, [2 ** x for x in values]),
                      (third ** vector, [float(third) ** x for x in values])):
        assert isinstance(got, Vector)
        assert [x.hex() for x in got] == [x.hex() for x in want]
    # a lane outside a function's domain is the scalar's refusal, and a zero
    # lane of a jet's constant term makes it singular
    with pytest.raises(DomainError, match="square root of a negative value"):
        jets.sqrt(Vector([1.0, -1e-3]))
    with pytest.raises(DomainError, match="logarithm of a nonpositive value"):
        jets.log(Vector([1.0, 0.0]))
    with pytest.raises(DomainError, match="singular jet"):
        1 / TruncatedSeries([Vector([1.0, -0.0]), 1.0])
    with pytest.raises(ValueError, match="vectors of 2 and 3 lanes"):
        Vector([1.0, 2.0]) + Vector([1.0, 2.0, 3.0])


def test_fraction_series_keep_fraction_coefficients():
    integ = quadrature(lambda t: 2 + Fraction(1, 3) * t - Fraction(1, 5) * t * t, 3)
    assert integ.coefficients == (0, Fraction(2), Fraction(1, 6), Fraction(-1, 15))
    tail = TruncatedSeries([0, Fraction(1, 3), Fraction(1, 7), 0])
    assert exp_series(tail).coefficients == (
        1, Fraction(1, 3), Fraction(1, 7) + Fraction(1, 18),
        Fraction(1, 162) + Fraction(1, 21),
    )
    # (1 + x/3) ** (-3/2) = 1 - x/2 + 5 x**2 / 24
    power = TruncatedSeries([1, Fraction(1, 3), 0]) ** Fraction(-3, 2)
    assert power.coefficients == (1, Fraction(-1, 2), Fraction(5, 24))
    for out in (integ, exp_series(tail), power):
        assert all(isinstance(c, Fraction) for c in out.coefficients[1:])


def _lanes_match_scalars(build, columns):
    # build on a series of array coefficients, lane by lane on float series
    np = pytest.importorskip("numpy")
    batched = build(TruncatedSeries([np.array(c) for c in columns]))
    for i in range(len(columns[0])):
        alone = build(TruncatedSeries([c[i] for c in columns]))
        for p in range(alone.order + 1):
            assert float(batched.coefficient(p)[i]).hex() == alone.coefficient(p).hex(), (i, p)


@pytest.mark.parametrize("name", ["exp", "log", "sin", "cos", "cube_root", "power"])
def test_array_constant_terms_round_as_math_does(name):
    # numpy's vectorized exp, log, sin, cos and power round some of these
    # 2000 leads differently from math; the series take math's, lane by lane
    rng = random.Random(7)
    n = 2000
    columns = [[rng.uniform(0.05, 9.0) for _ in range(n)]] + \
        [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(3)]
    build = {
        "exp": jets.exp, "log": jets.log, "sin": jets.sin, "cos": jets.cos,
        "cube_root": lambda s: s ** Fraction(1, 3),
        "power": lambda s: s ** Fraction(-5, 2),
    }[name]
    _lanes_match_scalars(build, columns)
