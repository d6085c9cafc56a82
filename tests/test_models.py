"""Tests for the geometric model layer.

Reference values are frozen from independent derivations: the circle
action on the sphere has the radial phase 2*log(cosh(2*pi*rho)) in the
cylindrical chart, which yields every closed form used below (series
coefficients, Gamma-ratio densities, sech^2 transport Jacobian).
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path
import random

import numpy as np
import pytest

from lapasym import engine
from lapasym.crosscheck import (
    direction_atoms,
    leading_term_identity,
    profile_from_atoms,
    scaled_generator_model,
    scaled_volume_model,
    zeta2_reference,
    zeta2_reference_from_atoms,
    zeta_geometric,
    zeta_geometric_from_atoms,
)
from lapasym.engine import RadialProfile, expansion_coefficient, expansion_series, \
    gamma_value, sphere_rule
from lapasym.errors import DomainError
from lapasym import models
from lapasym.jets import Lanes, TruncatedSeries
from lapasym.models import (
    HamiltonianModel,
    builtin_sphere_model,
    density_series,
    gaussian_test_model,
    geometric_expansion,
    load_model,
    model_from_config,
    quartic_test_model,
    radial_profile,
    resolve_model,
)
from lapasym.oracle import density, j_a_numeric, jacobian_tau_check

from test_engine import columns, mirror_row

SQRT_PI = math.sqrt(math.pi)
GOLDEN = Path(__file__).resolve().parent / "golden"
TWO_PI = 2.0 * math.pi

# sphere radial phase 2*log(cosh(2*pi*rho)): even Taylor coefficients
SPHERE_PHASE = {
    2: 4.0 * math.pi ** 2,
    4: -8.0 * math.pi ** 4 / 3.0,
    6: 128.0 * math.pi ** 6 / 45.0,
    8: -1088.0 * math.pi ** 8 / 315.0,
}
SPHERE_ZETA0 = SQRT_PI / TWO_PI


def sphere_zeta2(a: float) -> float:
    return SQRT_PI * (1.0 - 4.0 * a) / (16.0 * math.pi)


def sphere_j_exact(k: float, a: float) -> float:
    return SPHERE_ZETA0 * math.exp(math.lgamma(k + a) - math.lgamma(k + a + 0.5))


def rel(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


# ------------------------------------------------------------ random model factory

def poly(coeffs):
    def fn(x):
        out = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            out = out * x + c
        return out

    return fn


def random_line_model(rng: random.Random) -> HamiltonianModel:
    """A one-chart model with rational polynomial data, exact under jets."""
    phi_poly = poly([Fraction(0), Fraction(rng.randint(1, 4))]
                    + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(4)])
    field_poly = poly([Fraction(rng.randint(1, 3))]
                      + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(3)])
    lap_poly = poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(4)])
    return HamiltonianModel(
        group_dim=1,
        chart_dim=1,
        phi=lambda omega, point: omega[0] * phi_poly(point[0]),
        flow_field=lambda omega, point: (omega[0] * field_poly(point[0]),),
        laplacian_phi=lambda omega, point: omega[0] * lap_poly(point[0]),
        zero_points=((Fraction(0),),),
        orbit_volume=lambda point: 1.0,
        name="random-line",
    )


def random_atoms(rng: random.Random):
    """Parity-consistent per-direction atoms for a d = 1 synthetic profile."""
    plus_flow = (
        Fraction(rng.randint(1, 6), rng.randint(1, 2)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )
    plus_lap = (
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )
    minus_flow = tuple(v if i % 2 == 0 else -v for i, v in enumerate(plus_flow))
    minus_lap = tuple(-v if i % 2 == 0 else v for i, v in enumerate(plus_lap))
    return (plus_flow, plus_lap), (minus_flow, minus_lap)


# ------------------------------------------------------------ radial series

def test_sphere_radial_series_match_closed_form():
    series = radial_profile(builtin_sphere_model(), (1,), order=8)
    for power, expected in SPHERE_PHASE.items():
        assert rel(float(series.phase.coefficient(power)), expected) < 1e-12
    for power in (0, 1, 3, 5, 7):
        assert abs(float(series.phase.coefficient(power))) < 1e-10
    # log-weight is exactly the negated phase for this action
    for power in range(9):
        assert abs(float(series.log_weight.coefficient(power))
                   + float(series.phase.coefficient(power))) \
            < 1e-12 * max(1.0, abs(SPHERE_PHASE.get(power, 0.0)))


def test_jet_lemma_on_sphere():
    model = builtin_sphere_model()
    series = radial_profile(model, (1,), order=7)
    flow_atoms, lap_atoms = direction_atoms(model, (1,), None, 5, 5)
    for p in range(5):
        predicted = 2.0 * float(flow_atoms[p]) / math.factorial(p + 2)
        assert rel(float(series.phase.coefficient(p + 2)), predicted) < 1e-10
    for p in range(1, 6):
        predicted = float(lap_atoms[p - 1]) / math.factorial(p)
        assert rel(float(series.log_weight.coefficient(p)), predicted) < 1e-10


def test_jet_lemma_on_random_models_exactly():
    rng = random.Random(20260514)
    for _ in range(20):
        model = random_line_model(rng)
        for omega in ((1,), (-1,)):
            series = radial_profile(model, omega, order=7)
            flow_atoms, lap_atoms = direction_atoms(model, omega, None, 5, 5)
            for p in range(5):
                assert series.phase.coefficient(p + 2) \
                    == Fraction(2, math.factorial(p + 2)) * flow_atoms[p]
            for p in range(1, 6):
                assert series.log_weight.coefficient(p) \
                    == Fraction(1, math.factorial(p)) * lap_atoms[p - 1]


def test_antipodal_parity():
    rng = random.Random(7)
    model = random_line_model(rng)
    plus = radial_profile(model, (1,), order=6)
    minus = radial_profile(model, (-1,), order=6)
    for m in range(7):
        sign = 1 if m % 2 == 0 else -1
        assert minus.phase.coefficient(m) == sign * plus.phase.coefficient(m)
        assert minus.log_weight.coefficient(m) == sign * plus.log_weight.coefficient(m)
    plus_flow, plus_lap = direction_atoms(model, (1,), None, 4, 4)
    minus_flow, minus_lap = direction_atoms(model, (-1,), None, 4, 4)
    for i in range(4):
        assert minus_flow[i] == (plus_flow[i] if i % 2 == 0 else -plus_flow[i])
        assert minus_lap[i] == (-plus_lap[i] if i % 2 == 0 else plus_lap[i])


def rational_sphere_model() -> HamiltonianModel:
    # the unit sphere with generator period 2 pi: every chart value is rational
    return HamiltonianModel(
        group_dim=1,
        chart_dim=2,
        phi=lambda w, p: w[0] * p[1],
        flow_field=lambda w, p: (0, w[0] * (1 - p[1] * p[1])),
        laplacian_phi=lambda w, p: -2 * w[0] * p[1],
        zero_points=((0, 0),),
        orbit_volume=lambda p: 1.0,
        name="rational-sphere",
    )


@pytest.mark.parametrize("order,tolerance", [(14, 5e-12), (18, 1e-10)])
def test_float_mode_tracks_exact_mode_at_high_order(order, tolerance):
    model = rational_sphere_model()
    half = Fraction(1, 2)
    floats = geometric_expansion(model, half_form=half, order=order).coefficients
    exact = geometric_expansion(model, half_form=half, order=order, mode="exact").coefficients
    for x, y in zip(floats, exact):
        assert abs(x - y) <= tolerance * abs(y)


def gamma_ratio_series(a: Fraction, b: Fraction, terms: int) -> list[Fraction]:
    """Coefficients of x**n, x = 1/k, in k**(b - a) Gamma(k + a) / Gamma(k + b).

    The logarithm is sum_n (-1)**(n+1) (B_{n+1}(a) - B_{n+1}(b)) / (n (n+1) k**n)
    in Bernoulli polynomials (Tricomi & Erdelyi, Pacific J. Math. 1, 1951);
    its exponential comes from n e_n = sum_m m l_m e_{n-m}.
    """
    import sympy

    def bernoulli(n: int, x: Fraction) -> Fraction:
        value = sympy.bernoulli(n, sympy.Rational(x.numerator, x.denominator))
        return Fraction(int(value.p), int(value.q))

    log = [Fraction(0)] + [
        (-1) ** (n + 1) * (bernoulli(n + 1, a) - bernoulli(n + 1, b)) / (n * (n + 1))
        for n in range(1, terms)
    ]
    series = [Fraction(1)]
    for n in range(1, terms):
        series.append(sum(m * log[m] * series[n - m] for m in range(1, n + 1)) / n)
    return series


def test_exact_mode_matches_the_gamma_ratio_series():
    # j_{1/2}(k) = sqrt(pi) Gamma(k + 1/2) / Gamma(k + 1) on the rational
    # sphere, so coefficient 2n is sqrt(pi) c_n and the odd ones vanish
    c = gamma_ratio_series(Fraction(1, 2), Fraction(1), 13)
    assert c[:4] == [1, Fraction(-1, 8), Fraction(1, 128), Fraction(5, 1024)]
    result = geometric_expansion(rational_sphere_model(), half_form=Fraction(1, 2),
                                 order=24, mode="exact")
    for n, cn in enumerate(c):
        expected = SQRT_PI * float(cn)
        assert abs(result.coefficients[2 * n] - expected) <= 1e-15 * abs(expected)
    for j in range(1, 25, 2):
        assert result.coefficients[j] == 0.0 and result.odd_vanished[j]


def test_radial_profile_validations():
    sphere = builtin_sphere_model()
    with pytest.raises(DomainError):
        radial_profile(sphere, (1,), (0.0, 0.5))
    with pytest.raises(DomainError):
        radial_profile(sphere, (1,), order=1)
    flat = gaussian_test_model()
    degenerate = flat.replace(
        phi=lambda omega, point: omega[0] * point[0] * point[0]
    )
    with pytest.raises(DomainError):
        radial_profile(degenerate, (1,))
    inverted = flat.replace(
        phi=lambda omega, point: -omega[0] * point[0]
    )
    with pytest.raises(DomainError):
        radial_profile(inverted, (1,))


# ------------------------------------------------------------ coefficient routes

def test_triple_agreement_on_random_atoms():
    rng = random.Random(991)
    rule = sphere_rule(1)
    for _ in range(50):
        plus, minus = random_atoms(rng)
        table = [plus if rule.nodes[i][0] > 0 else minus for i in range(len(rule))]
        weights = [float(w) for w in rule.weights]
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        engine_value = expansion_coefficient(
            2, profile_from_atoms(rule, table, 2, a)
        )
        raw_value = zeta_geometric_from_atoms(2, a, 1, table, weights)
        closed_value = zeta2_reference_from_atoms(a, 1, table, weights)
        assert rel(engine_value, raw_value) < 1e-12
        assert rel(engine_value, closed_value) < 1e-12


def test_zeta_routes_on_sphere():
    sphere = builtin_sphere_model()
    assert rel(zeta_geometric(0, Fraction(1, 2), sphere), SPHERE_ZETA0) < 1e-12
    for j in (1, 3):
        assert abs(zeta_geometric(j, Fraction(1, 2), sphere)) < 1e-12
    for a in (0, Fraction(1, 2), Fraction(1, 3)):
        expected = sphere_zeta2(float(a))
        assert rel(zeta_geometric(2, a, sphere), expected) < 1e-12
        assert rel(zeta2_reference(a, sphere), expected) < 1e-12
        result = geometric_expansion(sphere, half_form=a, order=3)
        assert rel(result.coefficients[0], SPHERE_ZETA0) < 1e-12
        assert rel(result.coefficients[2], expected) < 1e-12
        assert result.odd_vanished[1] and result.odd_vanished[3]


def random_line_config(rng: random.Random, index: int) -> dict:
    """A d = 1 config model with random rational polynomials, scaled by w0."""
    def rational():
        return f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"

    def polynomial(coeffs):
        return ["*", "w0", ["+", *(["*", c, ["pow", "x0", n]]
                                   for n, c in enumerate(coeffs))]]

    return {
        "name": f"random-line-{index}",
        "group_dim": 1,
        "chart_dim": 1,
        "phi": polynomial([0, rng.randint(1, 4)] + [rational() for _ in range(4)]),
        "flow_field": [polynomial([rng.randint(1, 3)] + [rational() for _ in range(3)])],
        "laplacian_phi": polynomial([rational() for _ in range(4)]),
        "zero_points": [[0]],
        "orbit_volume": 1,
    }


def test_raw_route_matches_exact_engine_to_order_six():
    rng = random.Random(4243)
    for index in range(6):
        model = model_from_config(random_line_config(rng, index))
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        exact = geometric_expansion(model, half_form=a, order=6, mode="exact")
        for j in range(7):
            expected = exact.coefficients[j]
            assert abs(zeta_geometric(j, a, model) - expected) <= 1e-13 * abs(expected), \
                (index, j)


def test_zeta2_reference_flat_models():
    assert abs(zeta2_reference(Fraction(1, 2), gaussian_test_model())) < 1e-15
    # pure quartic perturbation: only the third flow atom contributes
    expected = -0.75 * SQRT_PI
    assert rel(zeta2_reference(Fraction(1, 2), quartic_test_model()), expected) < 1e-14
    assert rel(zeta_geometric(2, 0, quartic_test_model()), expected) < 1e-14


def test_leading_term_identity_and_controls():
    sphere = builtin_sphere_model()
    lhs, rhs = leading_term_identity(sphere)
    assert rel(lhs, SPHERE_ZETA0) < 1e-12
    assert rel(lhs, rhs) < 1e-12
    lhs, rhs = leading_term_identity(gaussian_test_model())
    assert rel(lhs, SQRT_PI) < 1e-12
    assert rel(lhs, rhs) < 1e-12
    # volume misreported by 2: right side halves, left side unchanged
    lhs, rhs = leading_term_identity(scaled_volume_model(sphere, 2.0))
    assert rel(lhs / rhs, 2.0) < 1e-10
    # generator doubled with the volume left alone: mismatch by 2**d
    lhs, rhs = leading_term_identity(scaled_generator_model(sphere, 2.0))
    assert rel(rhs / lhs, 2.0) < 1e-10


# ------------------------------------------------------------ numeric densities

def test_j_a_numeric_gaussian():
    flat = gaussian_test_model()
    for k in (50.0, 200.0):
        expected = math.sqrt(math.pi / k)
        assert rel(j_a_numeric(flat, None, 0, k, tol=1e-12), expected) < 1e-10
        # zero Laplacian: the half-form weight cannot matter
        assert rel(j_a_numeric(flat, None, Fraction(1, 2), k, tol=1e-12),
                   expected) < 1e-10


def test_j_a_numeric_sphere_gamma_ratio():
    sphere = builtin_sphere_model()
    for k, a in ((10.0, 0.0), (10.0, 0.5), (25.0, 1.0)):
        value = j_a_numeric(sphere, None, a, k, tol=1e-12)
        assert rel(value, sphere_j_exact(k, a)) < 1e-9


def test_j_a_numeric_quartic_reference():
    # independent quadrature of exp(-k(x^2 + x^4)) on the real line
    value = j_a_numeric(quartic_test_model(), None, 0, 100.0, tol=1e-12)
    assert rel(value, 0.17596991098913908) < 1e-10


def test_j_a_numeric_k_list_matches_scalar_calls():
    # one call over a k list shares its flows and changes no digit
    sphere = builtin_sphere_model()
    ks = [Fraction(25), 60, 200.0]
    values = j_a_numeric(sphere, None, Fraction(1, 2), ks, tol=1e-10)
    assert values == [j_a_numeric(sphere, None, Fraction(1, 2), k, tol=1e-10) for k in ks]
    assert density(sphere, "J", ks) == [density(sphere, "J", k) for k in ks]


def test_j_a_numeric_validation():
    with pytest.raises(DomainError):
        j_a_numeric(gaussian_test_model(), None, 0, 0.0)


@pytest.mark.parametrize("model", [gaussian_test_model(), builtin_sphere_model()],
                         ids=["gaussian", "sphere"])
def test_j_a_numeric_refuses_an_infinite_tolerance(model):
    # an infinite tolerance certified any estimate
    with pytest.raises(DomainError, match="tolerance and radius must be positive and finite"):
        j_a_numeric(model, None, Fraction(1, 2), 100.0, tol=math.inf)


def test_density_closed_forms():
    sphere = builtin_sphere_model()
    ks = [10.0, 100.0, 1000.0]
    j_values = density(sphere, "J", ks)
    i_values = density(sphere, "I", ks)
    for k, j_val, i_val in zip(ks, j_values, i_values):
        j_exact = math.sqrt(k) * math.exp(math.lgamma(k + 0.5) - math.lgamma(k + 1.0))
        i_exact = math.pi * math.sqrt(2.0 * k) \
            * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.5))
        assert rel(j_val, j_exact) < 1e-8
        assert rel(i_val, i_exact) < 1e-8
    scalar = density(sphere, "J", 100.0)
    assert isinstance(scalar, float)
    assert rel(scalar, j_values[1]) < 1e-12


def test_density_kind_validation():
    sphere = builtin_sphere_model()
    with pytest.raises(DomainError):
        density(sphere, "K", 100.0)
    with pytest.raises(DomainError):
        density_series(sphere, "j", 100.0)


def test_density_limits_and_approach():
    sphere = builtin_sphere_model()
    i_limit, j_limit = (density_series(sphere, kind, math.inf, order=0)
                        for kind in ("I", "J"))
    assert rel(i_limit, math.pi * math.sqrt(2.0)) < 1e-12
    assert rel(j_limit, 1.0) < 1e-12
    k = 1e4
    assert abs(density(sphere, "J", k, tol=1e-8) / j_limit - 1.0) < 1e-4
    assert abs(density(sphere, "I", k, tol=1e-8) / i_limit - 1.0) < 1e-4


def test_series_tracks_numeric_density():
    sphere = builtin_sphere_model()
    result = geometric_expansion(sphere, half_form=Fraction(1, 2), order=4)
    ks = [20.0, 40.0, 80.0]
    errors = [
        abs(j_a_numeric(sphere, None, 0.5, k, tol=1e-11) - result.partial_sum(k))
        for k in ks
    ]
    assert errors[0] > errors[1] > errors[2]
    # first omitted even term has index 6: decay k**(-7/2)
    from lapasym.oracle import convergence_order_fit

    slope = convergence_order_fit(ks, errors)
    assert slope < -3.4


# ------------------------------------------------------------ transport Jacobian

def test_jacobian_tau_sphere():
    sphere = builtin_sphere_model()
    for xi in (0.0, 0.1, -0.1, 0.5, -0.5):
        formula, fd = jacobian_tau_check(sphere, xi)
        expected = TWO_PI / math.cosh(TWO_PI * xi) ** 2
        assert rel(formula, expected) < 1e-10
        assert rel(formula, fd) < 1e-6
    plus = jacobian_tau_check(sphere, 0.3)[0]
    minus = jacobian_tau_check(sphere, -0.3)[0]
    assert rel(plus, minus) < 1e-12


def test_jacobian_tau_validation():
    sphere = builtin_sphere_model()
    with pytest.raises(DomainError):
        jacobian_tau_check(gaussian_test_model(), 0.1)
    with pytest.raises(DomainError):
        jacobian_tau_check(sphere, 1.5)
    widened = sphere.replace(group_dim=2)
    with pytest.raises(DomainError):
        jacobian_tau_check(widened, 0.1)


def test_jacobian_check_names_the_model_whose_map_refuses():
    # flowing back to x1 = -1/2, the Laplacian's log(1 + 2 x1) is refused
    model = model_from_config({
        "name": "log-strip", "group_dim": 1, "chart_dim": 2,
        "phi": ["*", "w0", "x1"], "flow_field": [0, "w0"],
        "laplacian_phi": ["*", "w0", ["log", ["+", 1, ["*", 2, "x1"]]]],
        "zero_points": [[0, 0]], "orbit_volume": 1, "zero_chart": ["s", 0],
        "chart_density": 1,
    })
    with pytest.raises(DomainError) as info:
        jacobian_tau_check(model, -1.0)
    assert str(info.value) == "model 'log-strip': logarithm of a nonpositive value"


# ------------------------------------------------------------ declarative configs

FLAT_CONFIG = {
    "name": "flat-line",
    "group_dim": 1,
    "chart_dim": 1,
    "phi": ["*", "w0", "x0"],
    "flow_field": [["*", "w0", 1]],
    "laplacian_phi": 0,
    "zero_points": [[0]],
    "orbit_volume": 1,
}

SPHERE_CONFIG = {
    "name": "config-sphere",
    "group_dim": 1,
    "chart_dim": 2,
    "phi": ["*", 2, "pi", "w0", "x1"],
    "flow_field": [0, ["*", 2, "pi", "w0", ["-", 1, ["pow", "x1", 2]]]],
    "laplacian_phi": ["*", -4, "pi", "w0", "x1"],
    "zero_points": [[0, 0]],
    "orbit_volume": ["*", 2, "pi", ["sqrt", ["-", 1, ["pow", "x1", 2]]]],
    "zero_chart": ["s", 0],
    "chart_density": 1,
}


def test_config_round_trip_flat(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(FLAT_CONFIG))
    model = load_model(str(path))
    assert model.name == "flat-line"
    loaded = geometric_expansion(model, order=4)
    builtin = geometric_expansion(gaussian_test_model(), order=4)
    for got, want in zip(loaded.coefficients, builtin.coefficients):
        assert abs(got - want) < 1e-14


def test_config_round_trip_sphere(tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(SPHERE_CONFIG))
    model = load_model(str(path))
    builtin = builtin_sphere_model()
    a = Fraction(1, 2)
    assert rel(zeta_geometric(2, a, model), zeta_geometric(2, a, builtin)) < 1e-10
    formula, fd = jacobian_tau_check(model, 0.25)
    expected = TWO_PI / math.cosh(TWO_PI * 0.25) ** 2
    assert rel(formula, expected) < 1e-9
    assert rel(formula, fd) < 1e-6


def test_resolve_model_and_errors(tmp_path):
    assert resolve_model("builtin:sphere").name == "sphere"
    assert resolve_model("builtin:gaussian").name == "gaussian"
    with pytest.raises(DomainError):
        resolve_model("builtin:unheard-of")
    with pytest.raises(DomainError):
        load_model(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError):
        load_model(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(DomainError):
        load_model(str(array))
    for breakage in (
        lambda c: c.pop("phi"),
        lambda c: c.__setitem__("flow_field", [["*", "w0", 1], 0]),
        lambda c: c.__setitem__("zero_points", [[0, 0]]),
        lambda c: c.__setitem__("group_dim", 1.5),
    ):
        config = dict(FLAT_CONFIG)
        config["flow_field"] = list(FLAT_CONFIG["flow_field"])
        breakage(config)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(config))
        with pytest.raises(DomainError):
            load_model(str(path))


@pytest.mark.parametrize("key, value, symbol", [
    ("phi", ["*", "w1", "x0"], "w1"),
    ("flow_field", [["*", "w0", "x1"]], "x1"),
    ("laplacian_phi", ["*", "t", "x0"], "t"),
    ("orbit_volume", ["*", "w0", "x0"], "w0"),
    ("chart_density", "s", "s"),
    ("zero_chart", ["x0"], "x0"),
])
def test_config_symbols_checked_at_load(key, value, symbol):
    with pytest.raises(DomainError) as info:
        model_from_config({**FLAT_CONFIG, key: value})
    message = str(info.value)
    assert "'flat-line'" in message and key in message and repr(symbol) in message


def test_config_unknown_symbol_refusal_names_model_key_and_allowed_symbols():
    with pytest.raises(DomainError) as info:
        model_from_config({**FLAT_CONFIG, "phi": ["*", "w1", "x0"]})
    assert str(info.value) == ("model 'flat-line': phi: unknown symbol 'w1' in expression; "
                               "allowed: x0, w0")


def test_config_symbol_free_domain_errors_fail_at_load():
    for node in (["/", 1, 0], ["sqrt", -1]):
        with pytest.raises(DomainError, match=re.escape(json.dumps(node))):
            model_from_config({**FLAT_CONFIG, "orbit_volume": node})



# ------------------------------------------------------------ batched oracle flows

def flat_model(axes):
    d = len(axes)
    return model_from_config({
        "name": "flat", "group_dim": d, "chart_dim": d,
        "phi": ["+", *(["*", a, f"w{i}", f"x{i}"] for i, a in enumerate(axes))],
        "flow_field": [["*", a, f"w{i}"] for i, a in enumerate(axes)],
        "laplacian_phi": "0", "zero_points": [[0] * d], "orbit_volume": "1",
    })


def circle_level(n):
    return tuple((math.cos(t), math.sin(t)) for t in (2.0 * math.pi * i / n for i in range(n)))


def assert_batched_flow_matches_scalar_solves(model, directions, span, bound):
    import numpy as np
    from lapasym import oracle

    x0 = model.zero_points[0]
    batched = oracle._augmented_flow(model, directions, x0)(span)
    radii = np.linspace(0.0, span, 9)
    rows = [batched.sol(rho).reshape(-1, len(directions)) for rho in radii]
    for i, omega in enumerate(directions):
        # one direction alone is one lane of its own solve
        alone = oracle._augmented_flow(model, (omega,), x0)(span)
        for rho, level in zip(radii, rows):
            y = alone.sol(rho)
            assert np.all(np.abs(level[:, i] - y) <= bound * np.maximum(1.0, np.abs(y)))


def test_j_a_numeric_span_covers_every_direction():
    # along (0, 1) the phase is rho^2 / 100, so k = 100 needs span 32; a span
    # probed along (1, 0) alone stops at 4 and cuts that direction's tail off
    value = j_a_numeric(flat_model(["1", "1/10"]), None, 0, 100.0, tol=1e-10)
    assert abs(value - math.pi / 10) <= 1e-10


ELEMENTARY2 = {
    "name": "elementary2", "group_dim": 2, "chart_dim": 2,
    "phi": ["+", ["*", "w0", "x0"], ["*", "w1", "x1"]],
    "flow_field": [
        ["*", "w0", ["sqrt", ["+", "1", ["*", "x1", "x1"]]]],
        ["*", "w1", ["exp", ["*", "1/4", "x0"]], ["+", "1", ["*", "1/3", ["sin", "x0"]]]],
    ],
    "laplacian_phi": ["*", "1/2", ["+", ["*", "w0", ["sin", "x1"]], ["*", "w1", "x0"]]],
    "zero_points": [[0, 0]], "orbit_volume": "1",
}


def test_batched_flow_with_elementary_maps_matches_scalar_solves():
    model = model_from_config(ELEMENTARY2)
    assert_batched_flow_matches_scalar_solves(model, circle_level(8), 1.0, 1e-11)
    value = j_a_numeric(model, None, Fraction(1, 2), 200.0, tol=1e-10)
    assert math.isfinite(value) and value > 0


def test_sphere_product_oracle_work_guard(monkeypatch):
    # the level-batched oracle: one fresh flow solve per angular level (its
    # one call of the initial step selection), which serves every span,
    # and one radial QUADPACK call per level and k
    from lapasym import integrators

    model = load_model(str(GOLDEN / "sphere2_product.json"))
    calls = {"_initial_step": 0, "quad": 0}
    originals = {name: getattr(integrators, name) for name in calls}

    def counting(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(integrators, name, counting(name))
    values = j_a_numeric(model, None, Fraction(1, 2), [106.0, 312.0, 1060.0], tol=1e-11)
    assert all(v > 0 for v in values)
    assert calls["_initial_step"] <= 16 and calls["quad"] <= 16
    monkeypatch.undo()
    assert_batched_flow_matches_scalar_solves(model, circle_level(16)[1::2], 1.0, 1e-11)


def test_oracle_names_a_model_whose_maps_refuse_arrays():
    def flow_field(omega, point):
        return (omega[0] * math.exp(point[1]), omega[1])  # math.exp takes one number

    model = HamiltonianModel(
        group_dim=2, chart_dim=2,
        phi=lambda w, p: w[0] * p[0] + w[1] * p[1],
        flow_field=flow_field,
        laplacian_phi=lambda w, p: 0,
        zero_points=((0.0, 0.0),),
        orbit_volume=lambda p: 1.0,
        name="scalar-only",
    )
    with pytest.raises(DomainError, match="'scalar-only' cannot evaluate its maps on coordinate arrays"):
        j_a_numeric(model, None, 0, 100.0)


def test_density_kinds_share_one_call():
    sphere = builtin_sphere_model()
    ks = [30.0, 100.0]
    assert density(sphere, ("I", "J"), ks) == [density(sphere, "I", ks), density(sphere, "J", ks)]


# ------------------------------------------------------------ batched series path

# the mixed 3-d config of the angular-rule item in ROADMAP.md
MIXED3 = {
    "name": "mixed3", "group_dim": 3, "chart_dim": 3,
    "phi": ["+", ["*", "w0", ["+", "x0", ["*", "1/3", "x1"], ["*", "1/5", ["pow", "x0", 2]]]],
                 ["*", "1/2", "w1", ["+", "x1", ["*", "-1/4", ["pow", "x2", 2]]]],
                 ["*", "1/3", "w2", ["+", "x2", ["*", "1/7", "x0", "x1"]]]],
    "flow_field": [["+", "w0", ["*", "1/6", "w1", "x0"]],
                   ["+", ["*", "1/2", "w1"], ["*", "1/8", "w0", "x2"]],
                   ["*", "1/3", "w2", ["+", "1", ["*", "-1/5", "x1"]]]],
    "laplacian_phi": ["+", ["*", "1/2", "w0", "x1"], ["*", "-1/3", "w2", "x0"]],
    "zero_points": [[0, 0, 0]], "orbit_volume": "1",
}

# perfbench/workloads.py's sphere_product_config at scales 1 and 7/8
SPHERE_PRODUCT2 = {
    "name": "sphere2", "group_dim": 2, "chart_dim": 2,
    "phi": ["+", ["*", ["*", "2", "pi", "1"], "w0", "x0"],
                 ["*", ["*", "2", "pi", "7/8"], "w1", "x1"]],
    "flow_field": [["*", ["*", "2", "pi", "1"], "w0", ["-", "1", ["pow", "x0", 2]]],
                   ["*", ["*", "2", "pi", "7/8"], "w1", ["-", "1", ["pow", "x1", 2]]]],
    "laplacian_phi": ["+", ["*", "-2", ["*", "2", "pi", "1"], "w0", "x0"],
                           ["*", "-2", ["*", "2", "pi", "7/8"], "w1", "x1"]],
    "zero_points": [[0, 0]], "orbit_volume": "1",
}

# every transcendental acts on a series whose constant term depends on the
# direction, so its leads are computed lane by lane; each is taken of an
# even function of the direction (w0 w1, a square), so the maps stay odd
TRANSCENDENTAL2 = {
    "name": "transcendental2", "group_dim": 2, "chart_dim": 2,
    "phi": ["+", ["*", "w0", "x0", ["cos", ["+", ["*", "w0", "w1"], "x1"]]],
                 ["*", "w1", ["-", ["exp", ["+", ["pow", "w1", 2], "x1"]],
                                   ["exp", ["+", ["pow", "w1", 2], ["*", "0", "x0"]]]]]],
    "flow_field": [["*", "w0", ["+", "2", ["sin", ["+", ["*", "w0", "w1"], "x0"]]]],
                   ["*", "w1", ["exp", ["+", ["pow", "w0", 2], "x0"]]]],
    "laplacian_phi": ["+", ["*", "w0", ["log", ["+", "3", ["*", "w0", "w1"], "x0"]]],
                           ["*", "w1", ["cos", ["+", ["*", "w0", "w1"], "x1"]]]],
    "zero_points": [[0, 0]], "orbit_volume": "1",
}


# exp, log, sin, cos and powers of the bare direction components, in maps
# that are odd in the direction
BARE_DIRECTION2 = {
    "name": "bare-direction2", "group_dim": 2, "chart_dim": 2,
    "phi": ["+", ["*", "w0", ["exp", ["*", "1/2", ["pow", "w1", 2]]], "x0"],
                 ["*", "w1", ["cos", "w0"], "x1"]],
    "flow_field": [["*", "w0", ["exp", ["*", "1/2", ["pow", "w1", 2]]]],
                   ["*", "w1", ["cos", "w0"],
                    ["+", "1", ["*", ["log", ["+", "2", ["*", "w0", "w1"]]], "x0"]]]],
    "laplacian_phi": ["*", ["sin", "w0"], ["pow", "w1", 2], ["pow", "w0", 2], "x1"],
    "zero_points": [[0, 0]], "orbit_volume": "1",
}


# d = 1, chart_dim = 2: exp, cos, sin, log, sqrt and pow -2 act on series
# whose leads depend on w0, and exp on the bare (1/2) w0^2; each acts on an
# even function of w0, so the maps stay odd
TRANSCENDENTAL1 = {
    "name": "transcendental1", "group_dim": 1, "chart_dim": 2,
    "phi": ["*", "w0", "x0", ["cos", ["+", ["pow", "w0", 2], "x1"]],
            ["exp", ["*", "1/2", ["pow", "w0", 2]]]],
    "flow_field": [["*", "w0", ["+", "2", ["sin", ["+", ["pow", "w0", 2], "x0"]]]],
                   ["*", "w0", ["exp", ["+", ["pow", "w0", 2], "x0"]]]],
    "laplacian_phi": ["+", ["*", "w0", ["log", ["+", "3", ["pow", "w0", 2], "x0"]]],
                           ["*", "w0", ["sqrt", ["+", "2", ["pow", "w0", 2], "x1"]]],
                           ["*", "w0", ["pow", ["+", "2", ["pow", "w0", 2], "x0"], -2]]],
    "zero_points": [[0, 0]], "orbit_volume": "1",
}

# d = 1 with rational data; (1/2) w0 meets the direction lanes as a Fraction
RATIONAL_LINE = {
    "name": "rational-line", "group_dim": 1, "chart_dim": 1,
    "phi": ["*", "w0", ["+", ["*", "2", "x0"], ["*", "-3/2", ["pow", "x0", 2]],
                        ["*", "2/3", ["pow", "x0", 3]]]],
    "flow_field": [["*", "w0", ["+", "1", ["*", "1/2", "x0"], ["*", "-2/3", ["pow", "x0", 2]]]]],
    "laplacian_phi": ["*", "1/2", "w0", ["+", "1", ["*", "-2/3", "x0"]]],
    "zero_points": [[0]], "orbit_volume": "1",
}


def line_config(name, phi_signs, field_signs, lap_signs):
    """A cli-short line model of perfbench/workloads.py: fixed coefficient
    magnitudes of degree 7, 6 and 5, with the given signs."""
    def poly(leading, magnitudes, signs):
        signed = (m if s == "+" else "-" + m for m, s in zip(magnitudes, signs))
        coefficients = [*leading, *signed]
        terms = [c if i == 0 else ["*", c, "x0" if i == 1 else ["pow", "x0", i]]
                 for i, c in enumerate(coefficients) if c != "0"]
        return ["*", "w0", ["+", *terms]]

    return {
        "name": name, "group_dim": 1, "chart_dim": 1,
        "phi": poly(["0", "2"], ["3/2", "2/3", "1/4", "2/5", "1/6", "1/7"], phi_signs),
        "flow_field": [poly(["1"], ["1/2", "2/3", "1/4", "1/5", "1/6", "1/7"], field_signs)],
        "laplacian_phi": poly([], ["1/2", "1/3", "2/3", "1/5", "1/6", "1/7"], lap_signs),
        "zero_points": [[0]], "orbit_volume": "1",
    }


# the five exact cli-short line models at seed 1, which the benchmark
# expands exactly at order 14
CLI_SHORT_LINES = [line_config(f"line{i}", *signs) for i, signs in enumerate([
    ("+-++--", "++++-+", "----+-"), ("++-+++", "-+-+--", "+-----"),
    ("+--++-", "+++-++", "+++-++"), ("+---+-", "++----", "--++--"),
    ("+-+-++", "-+--++", "++--++"),
])]
LINE0 = CLI_SHORT_LINES[0]


def per_direction_expansion(model, half_form, order, resolution, convert=float):
    """The series path one direction at a time: a scalar radial profile
    per rule node, then the engine's bracket row by row.  The table rows
    are the radial coefficients passed through ``convert``; the profile
    returned holds them as object-array columns."""
    rule = sphere_rule(model.group_dim, resolution)
    rows_f, rows_g = [], []
    for node in np.asarray(rule.nodes).tolist():
        series = radial_profile(model, tuple(node), None, order + 2, half_form)
        rows_f.append([convert(series.phase.coefficient(p + 2)) for p in range(order + 1)])
        rows_g.append([convert(series.weight.coefficient(p)) for p in range(order + 1)])
    coefficients = []
    for j in range(order + 1):
        e = Fraction(j + model.group_dim, 2)
        values = []
        for f, g in zip(rows_f, rows_g):
            u = TruncatedSeries([0, *f[1:j + 1]], order=j) / f[0]
            bracket = (TruncatedSeries(g[:j + 1]) * (1 + u) ** -e).coefficient(j)
            values.append(bracket * f[0] ** float(-e))
        coefficients.append(gamma_value(e) / 2 * math.fsum(
            w * v for w, v in zip(np.asarray(rule.weights).tolist(), values)))
    return coefficients, RadialProfile(rule, columns(rows_f), columns(rows_g))


@pytest.mark.parametrize("config, half_form, order, resolution", [
    (MIXED3, Fraction(1, 2), 4, 8),
    (MIXED3, Fraction(1, 2), 6, 8),
    (SPHERE_PRODUCT2, 0, 8, 32),
    (SPHERE_PRODUCT2, Fraction(1, 2), 8, 32),
    (SPHERE_PRODUCT2, 1, 8, 32),
    (TRANSCENDENTAL2, Fraction(1, 2), 6, 64),
    (BARE_DIRECTION2, Fraction(1, 2), 6, 10),
    (BARE_DIRECTION2, Fraction(1, 2), 6, 20),
    ("builtin:sphere", Fraction(1, 2), 14, 32),
    (RATIONAL_LINE, Fraction(1, 2), 10, 32),
    (TRANSCENDENTAL1, Fraction(1, 2), 8, 32),
    (LINE0, Fraction(1, 2), 14, 32),
], ids=["mixed3-o4", "mixed3-o6", "sphere2-a0", "sphere2-a1/2", "sphere2-a1",
        "transcendental2", "bare-direction2-r10", "bare-direction2-r20",
        "sphere1", "rational-line1", "transcendental1", "line0"])
def test_batched_series_path_is_bit_identical_per_direction(config, half_form, order,
                                                           resolution):
    # d = 1 transports the direction 1 and leaves the row of -1 out; the
    # reference runs each direction on its own
    model = resolve_model(config) if isinstance(config, str) else model_from_config(config)
    batched = geometric_expansion(model, None, half_form, order, resolution)
    reference, rows = per_direction_expansion(model, half_form, order, resolution)
    from_rows = expansion_series(rows, order)
    got = [c.hex() for c in batched.coefficients]
    assert got == [c.hex() for c in reference]
    assert got == [c.hex() for c in from_rows.coefficients]
    assert batched.odd_vanished == from_rows.odd_vanished


def test_batched_exact_path_matches_per_direction_rows():
    # exact mode in d = 1: the data of the direction 1 stays ints and
    # Fractions, and the folded -1 gives what -1 transported on its own gives
    half_form = Fraction(1, 2)
    for config, order in ((RATIONAL_LINE, 10), (LINE0, 14)):
        model = model_from_config(config)
        batched = geometric_expansion(model, None, half_form, order, mode="exact")
        _, rows = per_direction_expansion(model, half_form, order, 32, convert=lambda v: v)
        assert all(isinstance(c, (int, Fraction)) for column in rows.phase
                   for c in column)
        assert batched.coefficients == expansion_series(rows, order).coefficients
    # the transcendental model is refused on the float its first direction gives
    model = model_from_config(TRANSCENDENTAL1)
    series = radial_profile(model, (1,), None, 4, half_form)
    with pytest.raises(DomainError) as info:
        geometric_expansion(model, None, half_form, 2, mode="exact")
    assert f"float {series.phase.coefficient(2)!r}" in str(info.value)


def expanded_profile(monkeypatch, model, half_form, order, mode):
    # the profile geometric_expansion hands to the engine
    profiles = []

    def recording(profile, order):
        profiles.append(profile)
        return expansion_series(profile, order)

    with monkeypatch.context() as patch:
        patch.setattr(models, "expansion_series", recording)
        geometric_expansion(model, None, half_form, order, mode=mode)
    return profiles[0]


@pytest.mark.parametrize("config, half_form, orders, mode", [
    *((config, Fraction(1, 2), [14], "exact") for config in CLI_SHORT_LINES),
    ("builtin:sphere", Fraction(1, 2), range(4, 15, 2), "float"),
    ("builtin:quartic", 0, range(4, 15, 2), "float"),
], ids=[*(config["name"] for config in CLI_SHORT_LINES), "sphere", "quartic"])
def test_folded_line_tables_give_the_unfolded_coefficients(config, half_form, orders, mode,
                                                           monkeypatch):
    # the node -1 is left out: the columns are the plain numbers of the
    # direction 1, each bracket is one plain number, and the bits are those
    # of both nodes computed
    model = resolve_model(config) if isinstance(config, str) else model_from_config(config)
    kinds = (int, Fraction) if mode == "exact" else float
    for order in orders:
        profile = expanded_profile(monkeypatch, model, half_form, order, mode)
        tables = (profile.phase, profile.amplitude)
        assert profile.lanes == 1
        assert all(isinstance(c, kinds) for table in tables for c in table)
        brackets = []
        bracket = engine._inner_bracket

        def recording(j, exponent, f, g):
            brackets.append(bracket(j, exponent, f, g))
            return brackets[-1]

        with monkeypatch.context() as patch:
            patch.setattr(engine, "_inner_bracket", recording)
            got = expansion_series(profile, order)
        assert len(brackets) == order + 1
        assert all(isinstance(b, kinds) for b in brackets)
        full = (columns([table, mirror_row(table)]) for table in tables)
        want = expansion_series(engine.RadialProfile(profile.rule, *full), order)
        assert [c.hex() for c in got.coefficients] == [c.hex() for c in want.coefficients]
        assert got.odd_vanished == want.odd_vanished


def test_group_dimension_two_tables_are_not_folded(monkeypatch):
    # every coefficient is a number or lanes, one per node of the rule
    model = model_from_config(SPHERE_PRODUCT2)
    profile = expanded_profile(monkeypatch, model, Fraction(1, 2), 4, "float")
    assert profile.lanes == len(profile.rule)
    lanes = [c for c in (*profile.phase, *profile.amplitude) if isinstance(c, np.ndarray)]
    assert lanes and all(isinstance(c, Lanes) and c.shape == (len(profile.rule),)
                         for c in lanes)


def test_line_expand_transports_only_the_direction_one(monkeypatch):
    # one jet transport, and the flow field sees the plain direction (1,),
    # never an array of directions
    seen = []

    def flow_field(omega, point):
        seen.append(omega)
        return (omega[0] * (1 + point[0] / 2),)

    model = HamiltonianModel(
        group_dim=1, chart_dim=1,
        phi=lambda w, p: w[0] * (2 * p[0] + p[0] ** 2 / 2),
        flow_field=flow_field,
        laplacian_phi=lambda w, p: w[0] * (1 - p[0]) / 3,
        zero_points=((0,),), orbit_volume=lambda p: 1.0, name="spy-line",
    )
    transports = []
    transport = models.ode_jet_transport

    def counting(*args):
        transports.append(args)
        return transport(*args)

    monkeypatch.setattr("lapasym.models.ode_jet_transport", counting)
    seen.clear()  # the oddness check when the model was built
    geometric_expansion(model, None, Fraction(1, 2), 6, mode="exact")
    assert len(transports) == 1
    assert seen and all(type(omega) is tuple and len(omega) == 1 and type(omega[0]) is int
                        and omega[0] == 1 for omega in seen)


# phi = w0 x0 + x0^2: the x0^2 term is even in the direction
NOT_ODD = {
    "name": "not-odd", "group_dim": 1, "chart_dim": 1,
    "phi": ["+", ["*", "w0", "x0"], ["pow", "x0", 2]],
    "flow_field": ["w0"], "laplacian_phi": "0",
    "zero_points": [[0]], "orbit_volume": "1",
}


@pytest.mark.parametrize("config, where", [
    (NOT_ODD, "phi is 9/64 at omega = (1), point (1/8), and -7/64 at -omega"),
    # w0 w1 x0 is even in the direction; it shows only off the coordinate axes
    ({**NOT_ODD, "group_dim": 2, "flow_field": ["w0"],
      "phi": ["+", ["*", "w0", "x0"], ["*", "w0", "w1", "x0"]]},
     "phi is 3/16 at omega = (1, 1/2), point (1/8), and -1/16 at -omega"),
    # a float map: exp(w0) x0 is not odd, and far from it past rounding
    ({**NOT_ODD, "phi": ["*", "w0", "x0"], "laplacian_phi": ["*", ["exp", "w0"], "x0"]},
     "laplacian_phi is 0.3397852285573806"),
], ids=["line", "plane", "float-map"])
def test_model_not_odd_in_omega_is_refused_at_load(config, where):
    with pytest.raises(DomainError) as info:
        model_from_config(config)
    message = str(info.value)
    assert message.startswith("model 'not-odd' is not odd in omega: ") and where in message


def test_python_built_model_with_an_even_flow_field_is_refused():
    with pytest.raises(DomainError, match=r"model 'even-flow' is not odd in omega: flow_field\[0\]"):
        HamiltonianModel(
            group_dim=1, chart_dim=1,
            phi=lambda w, p: w[0] * p[0],
            flow_field=lambda w, p: (w[0] * w[0],),
            laplacian_phi=lambda w, p: 0,
            zero_points=((0,),), orbit_volume=lambda p: 1.0, name="even-flow",
        )


@pytest.mark.parametrize("chart_dim, flow", [(2, lambda w, p: (w[0],)),
                                              (1, lambda w, p: (w[0], w[0]))],
                         ids=["short", "long"])
def test_python_built_model_with_a_wrong_flow_arity_is_refused(chart_dim, flow):
    with pytest.raises(DomainError, match=rf"model 'arity': flow_field returned {3 - chart_dim} "
                                          rf"components for chart dimension {chart_dim}"):
        HamiltonianModel(
            group_dim=1, chart_dim=chart_dim,
            phi=lambda w, p: w[0] * p[0],
            flow_field=flow,
            laplacian_phi=lambda w, p: 0,
            zero_points=((0,) * chart_dim,), orbit_volume=lambda p: 1.0, name="arity",
        )


@pytest.mark.parametrize("changes, refusal", [
    ({"group_dim": 0}, "group_dim and chart_dim must be positive"),
    ({"zero_points": ()}, "zero_points: needs at least one point"),
    # a zero point shorter than the chart, which the maps would index past
    ({"chart_dim": 2, "phi": lambda w, p: w[0] * p[1]},
     "zero_points: each point must have chart dimension"),
], ids=["dimension", "no-point", "short-point"])
def test_malformed_python_model_is_refused_by_name(changes, refusal):
    with pytest.raises(DomainError) as info:
        gaussian_test_model().replace(**changes)
    assert str(info.value) == f"model 'gaussian': {refusal}"


def test_model_whose_maps_refuse_exact_points_is_refused():
    # the check evaluates at Fractions, which numpy's sin does not take
    np = pytest.importorskip("numpy")
    with pytest.raises(DomainError, match=r"model 'np-sin' cannot be evaluated at omega = \(1\), "
                                          r"point \(0\): loop of ufunc"):
        HamiltonianModel(
            group_dim=1, chart_dim=1,
            phi=lambda w, p: w[0] * np.sin(p[0]),
            flow_field=lambda w, p: (w[0],),
            laplacian_phi=lambda w, p: 0,
            zero_points=((0,),), orbit_volume=lambda p: 1.0, name="np-sin",
        )


def test_replaced_maps_are_checked_again():
    # a model built from another one with a map that is not odd, here the
    # sphere's Laplacian in float arithmetic
    with pytest.raises(DomainError, match="model 'sphere' is not odd in omega: laplacian_phi"):
        builtin_sphere_model().replace(laplacian_phi=lambda w, p: TWO_PI * (1 + p[1]))


@pytest.mark.parametrize("config, first_failure, reason", [
    # phi = w1 / 4 at the base point: the first node, (1, 0), is on the level
    ({"phi": ["+", ["*", "w0", "x0"], ["*", "w1", ["-", "x1", "1/4"]]]}, 1, "zero level"),
    # the leading phase coefficient is proportional to w0**2 - w1**2
    ({"phi": ["+", ["*", "w0", "x0"], ["*", "-1", "w1", "x1"]]}, 1, "degenerate"),
])
def test_batched_checks_name_model_and_first_failing_direction(config, first_failure,
                                                              reason):
    model = model_from_config({
        "name": "off-level", "group_dim": 2, "chart_dim": 2,
        "flow_field": ["w0", "w1"], "laplacian_phi": "0",
        "zero_points": [[0, 0]], "orbit_volume": "1", **config,
    })
    with pytest.raises(DomainError) as info:
        geometric_expansion(model, order=2, resolution=6)
    direction = tuple(sphere_rule(2, 6).nodes[first_failure].tolist())
    message = str(info.value)
    assert "'off-level'" in message and f"direction {direction}" in message
    assert reason in message
