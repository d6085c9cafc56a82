"""Tests for the expansion engine and its numeric quadrature oracle.

Closed forms used as oracles here are derived independently of the
engine formula: Gaussian moments give the quartic-phase coefficients
(-1)^n Gamma(2n + 1/2) / n!, and the ball integrals of exp(-k r^2)
reduce to error functions.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lapasym.engine import (
    RadialProfile,
    SphereRule,
    expansion_coefficient,
    expansion_series,
    gamma_value,
    sphere_area,
    sphere_rule,
)
from lapasym.errors import DomainError, QuadratureError
from lapasym.jets import TruncatedSeries, cos
from lapasym.models import gaussian_test_model, geometric_expansion
from lapasym.oracle import convergence_order_fit, numeric_laplace_integral

SQRT_PI = math.sqrt(math.pi)


def columns(rows, dtype=object):
    """A table given row by row, one row per direction, as its columns."""
    return np.array(rows, dtype=dtype).T


# ---------------------------------------------------------------- gamma

def test_gamma_value_half_integers_frozen():
    # the rational part rounds once, then meets sqrt(pi)
    assert gamma_value(Fraction(1, 2)) == SQRT_PI
    assert gamma_value(3) == 2.0
    assert gamma_value(Fraction(5, 2)) == float(Fraction(3, 4)) * SQRT_PI
    assert gamma_value(Fraction(7, 2)) == float(Fraction(15, 8)) * SQRT_PI
    assert gamma_value(Fraction(9, 2)) == pytest.approx(11.631728396567448, rel=1e-15)


def test_gamma_value_rejects_poles_and_every_other_argument():
    for q in (0, Fraction(-3, 2), Fraction(1, 3), 4.7, 2.0, "5/2"):
        with pytest.raises(DomainError):
            gamma_value(q)


# ---------------------------------------------------------------- sphere rules

@pytest.mark.parametrize("dim,resolution", [(1, 0), (2, 16), (3, 8), (5, 8)])
def test_sphere_rule_weight_sums(dim, resolution):
    rule = sphere_rule(dim, resolution) if resolution else sphere_rule(dim)
    assert math.fsum(rule.weights) == pytest.approx(sphere_area(dim), rel=1e-12)
    assert np.shape(rule.nodes) == (len(rule), dim)
    lengths = np.linalg.norm(rule.nodes, axis=1)
    assert np.allclose(lengths, 1.0, atol=1e-12)


@pytest.mark.parametrize("dim,resolution", [(1, 0), (2, 12), (3, 6), (4, 6), (5, 6), (6, 6)])
def test_sphere_rule_antipodal_closure(dim, resolution):
    rule = sphere_rule(dim, resolution) if resolution else sphere_rule(dim)
    nodes = np.asarray(rule.nodes)
    rows = {tuple(np.round(row, 12)) for row in nodes}
    for row in nodes:
        assert tuple(np.round(-row, 12)) in rows


def test_sphere_rule_in_one_dimension_has_integer_nodes():
    # exact radial data stays exact along the directions 1 and -1: plain
    # rows of the ints 1 and -1
    rule = sphere_rule(1)
    assert rule.nodes == ((1,), (-1,)) and rule.weights == (1.0, 1.0)
    assert [type(c) for row in rule.nodes for c in row] == [int, int]


def test_sphere_rule_reads_its_mirror_off_its_nodes():
    # d = 1's -1 is the exact negation of 1; the d >= 2 rules come in no
    # exact pairs in that order, so they mirror nothing
    assert sphere_rule(1).mirrored == 1
    for dim, resolutions in [(2, (4, 6, 8, 16, 32, 64)), (3, (2, 4, 5, 8, 16, 32, 64)),
                             (4, (4, 8)), (5, (4, 6))]:
        for resolution in resolutions:
            assert sphere_rule(dim, resolution).mirrored == 0, (dim, resolution)
    circle = np.array(sphere_rule(2, 8).nodes)
    assert abs(circle[4:] + circle[:4]).max() < 1e-15  # pairs to rounding only
    # the second half negates the first, in order: two mirrored nodes, and
    # -0.0 counts as the negation of 0.0
    cross = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [-0.0, -1.0]])
    assert SphereRule(2, cross, np.ones(4)).mirrored == 2
    assert SphereRule(2, cross[[0, 1, 3, 2]], np.ones(4)).mirrored == 0
    assert SphereRule(1, np.array([[2], [-2]]), np.ones(2)).mirrored == 1


def test_sphere_rule_refuses_misshapen_arrays():
    # n weights and an (n, dim) node array, or the rule would silently
    # drop or misread nodes
    for dim, nodes, weights in [(2, np.zeros((8, 2)), np.ones(6)),
                                (2, np.zeros((6, 2)), np.ones(8)),
                                (3, np.zeros((8, 2)), np.ones(8)),
                                (2, np.zeros(8), np.ones(8)),
                                (1, np.zeros((2, 1)), np.ones((2, 1))),
                                (1, np.zeros((2, 1)), np.float64(1.0))]:
        with pytest.raises(DomainError, match="node array and n weights"):
            SphereRule(dim, nodes, weights)


def test_sphere_rule_refuses_an_empty_rule():
    # a profile's columns would hold no direction
    with pytest.raises(DomainError, match="at least one node, not 0 nodes and 0 weights"):
        SphereRule(2, np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sphere_rule_refuses_non_finite_weights(bad):
    # a nan weight used to give nan coefficients with no error
    weights = np.full(4, math.pi / 2)
    weights[2] = bad
    with pytest.raises(DomainError, match=f"weight 2 is {bad}"):
        SphereRule(2, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), weights)


def test_sphere_rule_kills_odd_monomials():
    for dim, res in [(2, 16), (3, 10)]:
        rule = sphere_rule(dim, res)
        odd = math.fsum(w * n[0] ** 3 for n, w in zip(rule.nodes, rule.weights))
        assert abs(odd) < 1e-13


def test_sphere_rule_even_moment_exact():
    # integral of z^2 over the unit 2-sphere is 4 pi / 3
    rule = sphere_rule(3, 6)
    val = math.fsum(w * n[2] ** 2 for n, w in zip(rule.nodes, rule.weights))
    assert val == pytest.approx(4 * math.pi / 3, rel=1e-13)


def legendre_azimuth_rule(resolution):
    # the Gauss-Legendre times azimuth rule on S^2, built row by row
    x, w = np.polynomial.legendre.leggauss(resolution)
    m = 2 * resolution
    phi = 2.0 * math.pi * np.arange(m) / m
    sin_t = np.sqrt(1.0 - x ** 2)
    nodes = np.empty((resolution * m, 3))
    weights = np.empty(resolution * m)
    row = 0
    for i in range(resolution):
        for j in range(m):
            nodes[row] = (sin_t[i] * math.cos(phi[j]), sin_t[i] * math.sin(phi[j]), x[i])
            weights[row] = w[i] * 2.0 * math.pi / m
            row += 1
    return nodes, weights


def test_circle_rule_is_numpys_formula_bit_for_bit():
    # the circle rule is built one angle at a time with math, and its nodes
    # and weights are those of numpy's vectorized formula, at every even
    # count up to 4096
    for m in range(4, 4097, 2):
        rule = sphere_rule(2, m)
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.ones(m) * 2.0 * math.pi / m
        assert np.array(rule.nodes).tobytes() == nodes.tobytes(), m
        assert np.array(rule.weights).tobytes() == weights.tobytes(), m


def test_sphere_rule_keeps_the_legendre_azimuth_bits():
    # the product rule at d = 3 is the double loop above, node order and
    # weight arithmetic included, at power-of-two counts and all others
    for resolution in range(2, 41):
        nodes, weights = legendre_azimuth_rule(resolution)
        rule = sphere_rule(3, resolution)
        assert np.array_equal(rule.nodes, nodes), resolution
        assert np.array_equal(rule.weights, weights), resolution


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_product_rule_above_three_dimensions(dim):
    rule = sphere_rule(dim, 6)
    area = sphere_area(dim)
    assert len(rule) == 2 * 6 ** (dim - 1)
    assert abs(math.fsum(rule.weights) - area) <= 1e-15 * area
    # on S^(d-1): integral of x_i^4 is 3 A / (d (d + 2)), of x_i^2 x_j^2 is A / (d (d + 2))
    unit = area / (dim * (dim + 2))
    for i in range(dim):
        xi = rule.nodes[:, i]
        assert math.fsum(rule.weights * xi ** 4) == pytest.approx(3 * unit, rel=1e-13)
        for j in range(i):
            mixed = math.fsum(rule.weights * xi ** 2 * rule.nodes[:, j] ** 2)
            assert mixed == pytest.approx(unit, rel=1e-13)


@pytest.mark.parametrize("dim", [4, 5, 6])
def test_product_rule_anisotropic_flat_leading_coefficient(dim):
    # phase sum s_i^2 x_i^2: c_0 = Gamma(d/2) / 2 * integral of f0^(-d/2)
    # over the sphere = pi^(d/2) / prod s_i
    scales = np.array([1, 7 / 8, 3 / 4, 15 / 16, 13 / 16, 7 / 8][:dim])
    rule = sphere_rule(dim, 12)
    f0 = rule.nodes ** 2 @ scales ** 2
    profile = RadialProfile(rule, [f0], [1.0])
    expect = math.pi ** (dim / 2) / float(np.prod(scales))
    assert abs(expansion_coefficient(0, profile) - expect) <= 1e-9 * expect


@pytest.mark.parametrize("dim,resolution,count", [(5, 64, 33_554_432), (6, 48, 509_607_936)])
def test_sphere_rule_refuses_oversized_rules(dim, resolution, count):
    with pytest.raises(DomainError) as info:
        sphere_rule(dim, resolution)
    message = str(info.value)
    assert f"d = {dim}" in message and f"resolution {resolution}" in message
    assert f"{count} nodes" in message


def test_sphere_rule_rejects_odd_circle_count():
    with pytest.raises(DomainError):
        sphere_rule(2, 15)
    with pytest.raises(DomainError):
        sphere_rule(0, 8)


# ---------------------------------------------------------------- gaussian phase

def gaussian_profile(order):
    rule = sphere_rule(1)
    f = [1.0] + [0.0] * order
    g = [1.0] + [0.0] * order
    return RadialProfile(rule, f, g)


def test_gaussian_leading_coefficient_is_sqrt_pi():
    prof = gaussian_profile(8)
    assert abs(expansion_coefficient(0, prof) - SQRT_PI) <= 1e-14


def test_gaussian_higher_coefficients_vanish():
    res = expansion_series(gaussian_profile(8), 8)
    for j in range(1, 9):
        assert abs(res.coefficients[j]) <= 1e-13


def test_gaussian_partial_sum_matches_closed_form():
    res = expansion_series(gaussian_profile(8), 8)
    k = 1.0e4
    expect = math.sqrt(math.pi / k)
    assert abs(res.partial_sum(k) - expect) <= 1e-15 * expect


# ---------------------------------------------------------------- quartic phase

def quartic_reference(n):
    # from exp(-k rho^4) Taylor under the Gaussian integral
    return (-1) ** n * math.gamma(2 * n + 0.5) / math.factorial(n)


def quartic_profile(order):
    rule = sphere_rule(1)
    f = [1.0, 0.0, 1.0] + [0.0] * (order - 2)
    g = [1.0] + [0.0] * order
    return RadialProfile(rule, f, g)


def test_quartic_coefficients_match_gaussian_moments():
    res = expansion_series(quartic_profile(8), 8)
    for n in range(5):
        assert res.coefficients[2 * n] == pytest.approx(quartic_reference(n), rel=1e-13)
    for j in (1, 3, 5, 7):
        assert abs(res.coefficients[j]) <= 1e-12 * abs(res.coefficients[0])
        assert res.odd_vanished[j]


def test_quartic_partial_sum_remainder_magnitude():
    res = expansion_series(quartic_profile(4), 4)
    k = 1000.0
    oracle = numeric_laplace_integral(
        lambda p: p[0] ** 2 + p[0] ** 4, lambda p: 1.0, 1, k, tol=1e-13
    )
    err = abs(res.partial_sum(k) - oracle.value)
    # next omitted term is about 48 * k**-3.5
    assert 1e-10 < err < 5e-9


def test_exact_mode_agrees_with_float_mode():
    # the engine computes in the arithmetic of its tables: a Fraction
    # table exactly, its float copy in floats
    rule = sphere_rule(1)
    f = [Fraction(2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
    g = [Fraction(1), Fraction(-2, 7), Fraction(3, 11), Fraction(0)]
    exact = RadialProfile(rule, f, g)
    floats = RadialProfile(rule, list(map(float, f)), list(map(float, g)))
    for j in range(4):
        a = expansion_coefficient(j, exact)
        b = expansion_coefficient(j, floats)
        assert a == pytest.approx(b, rel=1e-13)


def test_exact_mode_is_reproducible():
    rule = sphere_rule(2, 8)
    f = [Fraction(4), Fraction(1, 2)]
    g = [Fraction(1), Fraction(1, 6)]
    prof = RadialProfile(rule, f, g)
    first = [expansion_coefficient(j, prof) for j in range(2)]
    second = [expansion_coefficient(j, prof) for j in range(2)]
    assert first == second
    # integer decay exponent: leading term is Gamma(1)/2 * (2 pi / f0)
    assert first[0] == pytest.approx(0.5 * 2 * math.pi / 4, rel=1e-14)


def test_profile_rejects_nonpositive_leading_phase():
    rule = sphere_rule(1)
    with pytest.raises(DomainError):
        RadialProfile(rule, [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        RadialProfile(rule, [-2.0], [1.0])
    with pytest.raises(DomainError):
        RadialProfile(rule, columns([[1.0], [-2.0]], float), [1.0])


def test_coefficient_index_bounds():
    prof = gaussian_profile(3)
    with pytest.raises(DomainError):
        expansion_coefficient(7, prof)
    with pytest.raises(DomainError):
        expansion_coefficient(-1, prof)


def test_dimension_and_exponents_come_from_the_rule():
    # a 1-d Gaussian: Gamma(1/2)/2 * (1 + 1) = sqrt(pi), terms k^(-(j+1)/2)
    res = expansion_series(gaussian_profile(2), 2)
    assert abs(res.coefficients[0] - SQRT_PI) <= 1e-14
    assert res.exponents == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    # on the circle the same data gives Gamma(1)/2 * 2 pi = pi and k^(-(j+2)/2)
    res = expansion_series(RadialProfile(sphere_rule(2, 8), [1.0], [1.0]), 0)
    assert res.coefficients[0] == pytest.approx(math.pi, rel=1e-14)
    assert res.exponents == (Fraction(1),)


def test_unknown_mode_and_negative_order_rejected():
    # the arithmetic mode is read by geometric_expansion alone
    with pytest.raises(DomainError, match="'decimal'"):
        geometric_expansion(gaussian_test_model(), order=2, mode="decimal")
    with pytest.raises(DomainError):
        expansion_series(gaussian_profile(2), -1)


# ---------------------------------------------------------------- odd cancellation

def test_odd_coefficients_cancel_for_equivariant_tables():
    rule = sphere_rule(1)
    f_plus = [1.0, 0.3, 0.2, -0.1]
    f_minus = [1.0, -0.3, 0.2, 0.1]
    g_plus = [1.0, 0.5, 0.1, 0.25]
    g_minus = [1.0, -0.5, 0.1, -0.25]
    prof = RadialProfile(rule, columns([f_plus, f_minus], float),
                         columns([g_plus, g_minus], float))
    res = expansion_series(prof, 3)
    scale = max(abs(c) for c in res.coefficients)
    assert abs(res.coefficients[1]) <= 1e-12 * scale
    assert abs(res.coefficients[3]) <= 1e-12 * scale
    assert res.odd_vanished == (False, True, False, True)


# ---------------------------------------------------------------- numeric oracle

def test_numeric_integral_gaussian_whole_line():
    est = numeric_laplace_integral(
        lambda p: p[0] ** 2, lambda p: 1.0, 1, 7.0, tol=1e-12, radius=16
    )
    assert est.value == pytest.approx(math.sqrt(math.pi / 7.0), rel=1e-12)
    assert est.error_bound <= 1e-12


def test_numeric_integral_gaussian_unit_interval():
    k = 5.0
    est = numeric_laplace_integral(lambda p: p[0] ** 2, lambda p: 1.0, 1, k, tol=1e-12)
    expect = math.sqrt(math.pi / k) * math.erf(math.sqrt(k))
    assert est.value == pytest.approx(expect, rel=1e-12)


def test_numeric_integral_disc():
    k = 3.0
    est = numeric_laplace_integral(
        lambda p: p[0] ** 2 + p[1] ** 2, lambda p: 1.0, 2, k, tol=1e-10
    )
    expect = math.pi / k * (1.0 - math.exp(-k))
    assert est.value == pytest.approx(expect, rel=1e-9)


def test_numeric_integral_disc_with_amplitude():
    k = 2.5
    est = numeric_laplace_integral(
        lambda p: p[0] ** 2 + p[1] ** 2, lambda p: p[0] ** 2, 2, k, tol=1e-10
    )
    expect = math.pi * (1.0 - (1.0 + k) * math.exp(-k)) / (2.0 * k * k)
    assert est.value == pytest.approx(expect, rel=1e-9)


def test_numeric_integral_ball_3d():
    k = 3.0
    est = numeric_laplace_integral(
        lambda p: p[0] ** 2 + p[1] ** 2 + p[2] ** 2, lambda p: 1.0, 3, k, tol=1e-9
    )
    expect = (math.pi / k) ** 1.5 * math.erf(math.sqrt(k)) \
        - 2.0 * math.pi / k * math.exp(-k)
    assert est.value == pytest.approx(expect, rel=1e-8)


def test_numeric_integral_unreachable_tolerance():
    # axes 1, 1/5, 1/5: the angular levels converge too slowly for 1e-9
    # before the n = 64 polar level
    with pytest.raises(QuadratureError) as info:
        numeric_laplace_integral(
            lambda p: p[0] ** 2 + (p[1] ** 2 + p[2] ** 2) / 25, lambda p: 1.0, 3, 1.0,
            tol=1e-9, radius=256,
        )
    err = info.value
    assert err.estimate == pytest.approx(25 * math.pi ** 1.5, rel=1e-6)
    assert err.error_bound > 1e-9


def test_numeric_integral_uncertified_radius_in_one_dimension():
    # cos(3000 x^2) oscillates too fast for the radial rule to certify 1e-13;
    # the exact value is Re sqrt(pi / z) erf(sqrt z), z = 1 - 3000 i
    with pytest.raises(QuadratureError, match="certified only") as info:
        numeric_laplace_integral(
            lambda p: p[0] ** 2, lambda p: cos(3000.0 * p[0] ** 2), 1, 1.0, tol=1e-13
        )
    err = info.value
    assert err.estimate == pytest.approx(0.022913031890449393, abs=1e-12)
    assert err.error_bound > 1e-13


def test_numeric_integral_refuses_four_dimensions():
    # exact (pi / 100)^2 = 9.87e-4; a uniform sample of the ball misses the peak
    with pytest.raises(DomainError):
        numeric_laplace_integral(
            lambda p: sum(c * c for c in p), lambda p: 1.0, 4, 100.0, tol=1e-6, radius=4.0
        )


def test_numeric_integral_validation():
    with pytest.raises(DomainError):
        numeric_laplace_integral(lambda p: p[0] ** 2, lambda p: 1.0, 1, -1.0)
    with pytest.raises(DomainError):
        numeric_laplace_integral(lambda p: p[0] ** 2, lambda p: 1.0, 0, 1.0)
    with pytest.raises(DomainError):
        numeric_laplace_integral(lambda p: p[0] ** 2, lambda p: 1.0, 1, 1.0, tol=-1.0)
    for dim in (1, 2):
        with pytest.raises(DomainError, match="finite"):
            numeric_laplace_integral(lambda p: p[0] ** 2, lambda p: 1.0, dim, 1.0,
                                     radius=math.inf)


def test_numeric_integral_deterministic():
    args = (lambda p: p[0] ** 2 + p[1] ** 2, lambda p: 1.0, 2, 4.0)
    a = numeric_laplace_integral(*args, tol=1e-9)
    b = numeric_laplace_integral(*args, tol=1e-9)
    assert a == b


# ---------------------------------------------------------------- misc

def test_partial_sum_rejects_bad_k():
    res = expansion_series(gaussian_profile(0), 0)
    with pytest.raises(DomainError):
        res.partial_sum(0.0)


def test_convergence_order_fit_recovers_power_law():
    ks = [10.0, 100.0, 1000.0, 10000.0]
    errors = [3.0 * k ** -2.5 for k in ks]
    assert convergence_order_fit(ks, errors) == pytest.approx(-2.5, abs=1e-12)
    with pytest.raises(DomainError):
        convergence_order_fit([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(DomainError):
        convergence_order_fit([1.0, 2.0, 3.0], [0.1, -0.2, 0.3])


def test_convergence_order_fit_needs_two_distinct_k_values():
    # one abscissa has no slope; the refusal says so, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="at least two distinct k values"):
            convergence_order_fit([100, 100, 100], [1e-3, 2e-3, 3e-3])
    assert convergence_order_fit([100, 100, 1000], [1e-3, 1e-3, 1e-4]) == pytest.approx(-1.0)


def test_profile_names_the_first_direction_with_a_nonpositive_lead():
    rule = sphere_rule(2, 4)
    for lead in (np.array([1.0, 2.0, -1.0, 0.0]), np.array([1, 2, Fraction(-1), 0], object)):
        with pytest.raises(DomainError) as info:
            RadialProfile(rule, [lead], [1.0])
        assert f"direction 2, {tuple(np.array(rule.nodes[2]).tolist())}, has -1.0" \
            in str(info.value)


# ---------------------------------------------------------------- table layouts

def row_by_row_series(rule, phase_rows, amplitude_rows, order):
    """The engine's coefficients one direction at a time, on the tables'
    own scalars: exact until each direction's value, floats where a
    float enters."""
    coefficients = []
    for j in range(order + 1):
        e = Fraction(j + rule.dim, 2)
        values = []
        for f, g in zip(phase_rows, amplitude_rows):
            u = TruncatedSeries([0, *f[1:j + 1]], order=j) / f[0]
            bracket = (TruncatedSeries(g[:j + 1]) * (1 + u) ** -e).coefficient(j)
            if e.denominator == 1 and not isinstance(f[0], float):
                values.append(float(bracket * f[0] ** -e.numerator))
            else:
                values.append(float(bracket) * float(f[0]) ** float(-e))
        coefficients.append(gamma_value(e) / 2 * math.fsum(
            w * v for w, v in zip(np.asarray(rule.weights).tolist(), values)))
    return coefficients


def layout_rows(n, width):
    # distinct rational radial data per direction, positive leading phase
    phase = [[Fraction(2 + i, 1 + i % 3)] + [Fraction((-1) ** (p + i) * (p + i), 3 + p)
                                             for p in range(1, width)] for i in range(n)]
    amplitude = [[Fraction(1 + i % 2)] + [Fraction(p - i, 5 + i) for p in range(1, width)]
                 for i in range(n)]
    return phase, amplitude


@pytest.mark.parametrize("dim, resolution", [(1, 32), (2, 8)], ids=["d1", "d2"])
@pytest.mark.parametrize("layout", ["float-phase-fraction-amplitude", "int-array",
                                    "ragged"])
def test_table_layouts_match_the_row_by_row_series(layout, dim, resolution):
    # the engine computes on the columns as they are: float arrays in
    # floats, object arrays entry by entry, a number as itself
    rule = sphere_rule(dim, resolution)
    phase, amplitude = layout_rows(len(rule), 6)
    order = 5
    if layout == "float-phase-fraction-amplitude":
        phase = [[float(c) for c in row] for row in phase]
        profile = RadialProfile(rule, columns(phase, float), columns(amplitude))
    elif layout == "int-array":
        phase = [[int(c * 6) for c in row] for row in phase]
        amplitude = [[int(c * 10) for c in row] for row in amplitude]
        profile = RadialProfile(rule, columns(phase), columns(amplitude))
    else:
        # a shorter phase table, so the profile reaches order 3, and f1 and
        # g0 numbers that every direction shares
        order = 3
        for row in phase:
            row[1] = Fraction(-2, 3)
        for row in amplitude:
            row[0] = 1
        phase_columns = [*columns(phase)][:4]
        amplitude_columns = [*columns(amplitude)]
        phase_columns[1], amplitude_columns[0] = Fraction(-2, 3), 1
        profile = RadialProfile(rule, phase_columns, amplitude_columns)
    assert profile.order == order and profile.lanes == len(rule)
    got = expansion_series(profile, order).coefficients
    want = row_by_row_series(rule, phase, amplitude, order)
    assert [c.hex() for c in got] == [c.hex() for c in want]


# ---------------------------------------------------------------- mirrored rows

def mirror_row(row):
    return [-c if p % 2 else c for p, c in enumerate(row)]


def test_profile_without_its_mirrored_rows_gives_the_full_tables_bits():
    # a left-out node holds its partner's data with column p times
    # (-1)**p; the full columns compute every lane, the short ones one
    # bracket per kept lane
    (f,), (g,) = layout_rows(1, 6)
    floats = [float(c) for c in f]
    floats[3] = 0.0  # its mirror holds -0.0
    amplitude_floats = [float(c) for c in g]
    amplitude_floats[1] = -0.0
    ints = [int(c * 6) for c in f]
    for phase, amplitude in ((f, g), (floats, g), (floats, amplitude_floats),
                             (ints, g), (ints, [int(c * 10) for c in g])):
        short = RadialProfile(sphere_rule(1), phase, amplitude)
        full = RadialProfile(sphere_rule(1), columns([phase, mirror_row(phase)]),
                             columns([amplitude, mirror_row(amplitude)]))
        got, want = expansion_series(short, 5), expansion_series(full, 5)
        assert [c.hex() for c in got.coefficients] == [c.hex() for c in want.coefficients]
        assert got.odd_vanished == want.odd_vanished
    # two mirrored nodes, with unequal weights: node 2 + i holds node i's data
    rule = SphereRule(2, np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]),
                      np.array([1.0, 2.0, 1.0, 2.0]))
    phase, amplitude = layout_rows(2, 6)
    short = RadialProfile(rule, columns(phase), columns(amplitude))
    full = RadialProfile(rule, columns(phase + [mirror_row(row) for row in phase]),
                         columns(amplitude + [mirror_row(row) for row in amplitude]))
    got, want = expansion_series(short, 5), expansion_series(full, 5)
    assert [c.hex() for c in got.coefficients] == [c.hex() for c in want.coefficients]
    assert got.odd_vanished == want.odd_vanished


def test_profile_refuses_lane_counts_the_rule_cannot_take():
    line, circle = sphere_rule(1), sphere_rule(2, 8)
    for rule, phase_lanes, amplitude_lanes, accepted in [
        (line, 2, 1, "takes 2 or 1"), (line, 1, 2, "takes 2 or 1"),
        (line, 3, 3, "takes 2 or 1"), (circle, 4, 4, "takes 8 or 8"),
        (circle, 7, 7, "takes 8 or 8"), (circle, 8, 7, "takes 8 or 8"),
    ]:
        with pytest.raises(DomainError, match=accepted):
            RadialProfile(rule, [np.full(phase_lanes, 2.0), 1.0], [np.ones(amplitude_lanes)])
    with pytest.raises(DomainError, match=r"shapes \[\(2, 1\)\]"):
        RadialProfile(line, [np.full((2, 1), 2.0)], [1.0])
    for lanes in (1, 2):
        profile = RadialProfile(line, [np.full(lanes, 2.0), 1, 1], [1, np.ones(lanes)])
        assert (profile.order, profile.lanes) == (1, lanes)
    # numbers alone hold the nodes but the mirrored ones
    assert RadialProfile(line, [2, 1, 1], [1, 1]).lanes == 1
    assert RadialProfile(circle, [2, 1, 1], [1, 1]).lanes == 8


# ---------------------------------------------------------------- float range

@pytest.mark.parametrize("phase, amplitude, refused", [
    ([1.0, math.inf], [1.0], "phase coefficient 1"),
    ([1, 0, 10 ** 400], [1], "phase coefficient 2"),
    ([1.0], [1.0, 0.0, math.nan], "amplitude coefficient 2"),
    ([np.array([1.0, 2.0]), np.array([0.0, -math.inf])], [1.0], "phase coefficient 1"),
    ([1], [1, np.array([0, -10 ** 400], object)], "amplitude coefficient 1"),
    ([Fraction(10 ** 400, 3)], [1], "phase coefficient 0"),
])
def test_profile_refuses_entries_with_no_finite_float(phase, amplitude, refused):
    with pytest.raises(DomainError, match=f"{refused} has no finite float value"):
        RadialProfile(sphere_rule(1), phase, amplitude)


def test_coefficients_past_the_float_range_are_refused():
    line = sphere_rule(1)
    # f0 ** -(3/2) overflows a float; f2 ** 2 overflows in floats, and in
    # exact arithmetic the bracket is too large for a float
    for profile, j in ((RadialProfile(line, [1e-300, 0.0, 0.0], [1.0, 0.0, 0.0]), 2),
                       (RadialProfile(line, [1.0, 0.0, 1e200, 0.0, 0.0], [1.0] * 5), 4),
                       (RadialProfile(line, [1, 0, 10 ** 200, 0, 0], [1] * 5), 4)):
        for k in range(j):
            assert math.isfinite(expansion_coefficient(k, profile))
        with pytest.raises(DomainError, match=f"coefficient {j} is (inf|nan), not a finite"):
            expansion_coefficient(j, profile)
        with pytest.raises(DomainError, match=f"coefficient {j} is"):
            expansion_series(profile, j)
