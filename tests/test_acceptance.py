"""Acceptance suite: one test (and one pass/fail line) per criterion.

``pytest tests/test_acceptance.py -v`` prints the per-criterion verdict
lines; each test also emits ``criterion N (...): PASS`` (visible with
``-s``).  Expected values come from independent derivations: closed-form
integrals, direct set-partition enumeration, adaptive quadrature, and
finite differences, never from the code path under test.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from lapasym import cli
from lapasym.crosscheck import (
    direction_atoms,
    leading_term_identity,
    profile_from_atoms,
    scaled_generator_model,
    zeta2_reference_from_atoms,
    zeta_geometric_from_atoms,
)
from lapasym.engine import (
    RadialProfile,
    expansion_coefficient,
    expansion_series,
    sphere_rule,
)
from lapasym.models import (
    HamiltonianModel,
    builtin_sphere_model,
    density_series,
    geometric_expansion,
    radial_profile,
)
from lapasym.oracle import (
    convergence_order_fit,
    density,
    jacobian_tau_check,
    numeric_laplace_integral,
)

SQRT_PI = math.sqrt(math.pi)


def report(number: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


def poly(coeffs):
    def value(x):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    return value


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


# ------------------------------------------------------------ 1: combinatorics

def iter_set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for partition in iter_set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [head]] + partition[i + 1:]
        yield partition + [[head]]


def parse_monomials(polynomial: str):
    terms = set()
    for piece in polynomial.split(" + "):
        coeff = 1
        body = piece
        if body and body[0].isdigit():
            digits = ""
            while body and body[0].isdigit():
                digits += body[0]
                body = body[1:]
            coeff = int(digits)
        exponents = []
        for factor in body.split("x")[1:]:
            if "^" in factor:
                index, power = factor.split("^")
                exponents.append((int(index), int(power)))
            else:
                exponents.append((int(factor), 1))
        terms.add((coeff, tuple(sorted(exponents))))
    return terms


def test_criterion_1_combinatorial_exactness(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "bell.csv"
    assert cli.main(["bell-table", "--order", "6", "--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines()
             if line and not line.startswith("#")]
    rows = {}
    for line in lines[1:]:
        kind, j, l, polynomial, value = line.split(",")
        rows[(kind, j, l)] = (polynomial, int(value))

    # the worked (6, 3) series-power coefficient, monomial by monomial
    assert parse_monomials(rows[("power", "6", "3")][0]) == {
        (6, ((1, 1), (2, 1), (3, 1))),
        (3, ((1, 2), (4, 1))),
        (1, ((2, 3),)),
    }
    # complete Bell values against a direct set-partition enumeration
    for j in range(7):
        expected = sum(1 for _ in iter_set_partitions(list(range(j))))
        assert rows[("complete", str(j), "")][1] == expected
    assert [rows[("complete", str(j), "")][1] for j in range(7)] \
        == [1, 1, 2, 5, 15, 52, 203]
    report(1, "combinatorial exactness", started, 1.0)


# ------------------------------------------------------------ 2: gaussian

def flat_profile(phase_head, order):
    # numbers that the direction 1 holds, and -1 by the fold
    phase = list(phase_head) + [0] * (order + 1 - len(phase_head))
    return RadialProfile(sphere_rule(1), phase, [1] + [0] * order)


def test_criterion_2_gaussian_exactness():
    started = time.perf_counter()
    result = expansion_series(flat_profile([1], 8), 8)
    assert abs(result.coefficients[0] - SQRT_PI) < 1e-14
    for j in range(1, 9):
        assert abs(result.coefficients[j]) <= 1e-13
    k = 1e4
    exact = math.sqrt(math.pi / k)
    assert abs(result.partial_sum(k) - exact) / exact < 1e-15
    report(2, "gaussian exactness", started, 1.0)


# ------------------------------------------------------------ 3: convergence

def test_criterion_3_oracle_convergence():
    started = time.perf_counter()
    result = expansion_series(flat_profile([1, 0, 1], 4), 4)
    ks = [100.0, 1000.0, 10000.0]
    errors = []
    for k in ks:
        oracle = numeric_laplace_integral(
            lambda p: p[0] ** 2 + p[0] ** 4, lambda p: 1.0, 1, k, tol=1e-13
        ).value
        errors.append(abs(oracle - result.partial_sum(k)))
    assert convergence_order_fit(ks, errors) <= -3.4
    report(3, "oracle convergence", started, 30.0)


# ------------------------------------------------------------ 4: sphere densities

def test_criterion_4_sphere_closed_forms():
    started = time.perf_counter()
    sphere = builtin_sphere_model()
    for k in (10.0, 100.0, 1000.0):
        j_exact = math.sqrt(k) * math.exp(math.lgamma(k + 0.5) - math.lgamma(k + 1.0))
        i_exact = math.pi * math.sqrt(2.0 * k) \
            * math.exp(math.lgamma(k + 1.0) - math.lgamma(k + 1.5))
        assert abs(density(sphere, "J", k) - j_exact) / j_exact < 1e-8
        assert abs(density(sphere, "I", k) - i_exact) / i_exact < 1e-8
    i_limit, j_limit = (density_series(sphere, kind, math.inf, order=0)
                        for kind in ("I", "J"))
    assert abs(j_limit - 1.0) < 1e-12
    assert abs(i_limit - 2.0 ** -0.5 * 2.0 * math.pi) < 1e-12
    k = 1e4
    assert abs(density(sphere, "J", k, tol=1e-8) / j_limit - 1.0) < 1e-4
    assert abs(density(sphere, "I", k, tol=1e-8) / i_limit - 1.0) < 1e-4
    report(4, "sphere closed forms", started, 10.0)


# ------------------------------------------------------------ 5: leading term

def test_criterion_5_leading_term_identity():
    started = time.perf_counter()
    lhs, rhs = leading_term_identity(builtin_sphere_model())
    assert abs(lhs - rhs) < 1e-12
    assert abs(lhs - SQRT_PI / (2.0 * math.pi)) < 1e-12
    # negative control: doubled generator, untouched volume, factor 2^d gap
    lhs, rhs = leading_term_identity(
        scaled_generator_model(builtin_sphere_model(), 2.0)
    )
    assert abs(rhs / lhs - 2.0) < 1e-9
    report(5, "leading-term identity", started, 1.0)


# ------------------------------------------------------------ 6: odd vanishing

def test_criterion_6_odd_vanishing():
    started = time.perf_counter()
    result = geometric_expansion(builtin_sphere_model(), half_form=Fraction(1, 2),
                                 order=7)
    scale = abs(result.coefficients[0])
    for j in (1, 3, 5, 7):
        assert abs(result.coefficients[j]) <= 1e-12 * scale
    rng = random.Random(160736)
    rule = sphere_rule(1)
    for _ in range(10):
        plus_f = [rng.uniform(0.5, 3.0)] + [rng.uniform(-1.0, 1.0)
                                            for _ in range(7)]
        plus_g = [1.0] + [rng.uniform(-1.0, 1.0) for _ in range(7)]
        minus_f = [v if p % 2 == 0 else -v for p, v in enumerate(plus_f)]
        minus_g = [v if p % 2 == 0 else -v for p, v in enumerate(plus_g)]
        rows_f = [plus_f if rule.nodes[i][0] > 0 else minus_f
                  for i in range(len(rule))]
        rows_g = [plus_g if rule.nodes[i][0] > 0 else minus_g
                  for i in range(len(rule))]
        profile = RadialProfile(rule, np.array(rows_f).T, np.array(rows_g).T)
        result = expansion_series(profile, 7)
        scale = abs(result.coefficients[0])
        for j in (1, 3, 5, 7):
            assert abs(result.coefficients[j]) <= 1e-12 * scale
    report(6, "odd vanishing", started, 5.0)


# ------------------------------------------------------------ 7: triple agreement

def test_criterion_7_triple_agreement():
    started = time.perf_counter()
    rng = random.Random(424243)
    rule = sphere_rule(1)
    weights = [float(w) for w in rule.weights]
    for _ in range(50):
        plus_flow = (
            Fraction(rng.randint(1, 6), rng.randint(1, 2)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        plus_lap = (
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        minus_flow = tuple(v if i % 2 == 0 else -v
                           for i, v in enumerate(plus_flow))
        minus_lap = tuple(-v if i % 2 == 0 else v
                          for i, v in enumerate(plus_lap))
        table = [
            (plus_flow, plus_lap) if rule.nodes[i][0] > 0
            else (minus_flow, minus_lap)
            for i in range(len(rule))
        ]
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        engine_value = expansion_coefficient(
            2, profile_from_atoms(rule, table, 2, a)
        )
        raw_value = zeta_geometric_from_atoms(2, a, 1, table, weights)
        closed_value = zeta2_reference_from_atoms(a, 1, table, weights)
        scale = max(1.0, abs(engine_value), abs(raw_value), abs(closed_value))
        assert abs(engine_value - raw_value) / scale < 1e-12
        assert abs(engine_value - closed_value) / scale < 1e-12
        assert abs(raw_value - closed_value) / scale < 1e-12
    report(7, "triple agreement at j=2", started, 5.0)


# ------------------------------------------------------------ 8: Jacobian

def test_criterion_8_transport_jacobian():
    started = time.perf_counter()
    sphere = builtin_sphere_model()
    for xi in (0.0, 0.1, -0.1, 0.5, -0.5):
        formula, fd = jacobian_tau_check(sphere, xi)
        assert abs(formula - fd) / abs(formula) < 1e-6
    report(8, "transport Jacobian", started, 5.0)


# ------------------------------------------------------------ 9: lemma series

def test_criterion_9_lemma_series_identity():
    started = time.perf_counter()
    rng = random.Random(515151)
    models = [builtin_sphere_model()]
    models.extend(random_line_model(rng) for _ in range(20))
    for model in models:
        for omega in ((1,), (-1,)):
            series = radial_profile(model, omega, order=7)
            flow_atoms, lap_atoms = direction_atoms(model, omega, None, 5, 4)
            for p in range(5):
                jet_value = float(series.phase.coefficient(p + 2))
                nested = 2.0 * float(flow_atoms[p]) / math.factorial(p + 2)
                scale = max(1.0, abs(jet_value), abs(nested))
                assert abs(jet_value - nested) / scale < 1e-10
            for p in range(1, 5):
                jet_value = float(series.log_weight.coefficient(p))
                nested = float(lap_atoms[p - 1]) / math.factorial(p)
                scale = max(1.0, abs(jet_value), abs(nested))
                assert abs(jet_value - nested) / scale < 1e-10
    report(9, "lemma-series identity", started, 10.0)
