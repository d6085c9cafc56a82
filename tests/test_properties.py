"""Property tests over random odd rational models in group dimensions 1 and 2.

A model ``phi = w0^m p(x0)``, ``flow_field = w0^m q(x0)``,
``laplacian_phi = w0^m r(x0)`` with an odd power ``m`` and rational
polynomials is odd in the direction, so the series path transports the
direction 1 alone and leaves the data of -1 out for the engine to fold
from it.  The folded expansion must equal the reference that transports
each direction on its own, exactly, and agree with the independent
raw-sum route.  In group dimension 2 every direction of the circle rule
is transported at once, as lanes, and the expansion must equal the
direction-by-direction reference bit for bit, and equal it whether the
lanes are a pure-Python vector (the rule's own tuples) or numpy lanes
(the same nodes as arrays).
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lapasym import models
from lapasym.crosscheck import zeta_geometric
from lapasym.engine import SphereRule, expansion_series, sphere_rule
from lapasym.models import geometric_expansion, model_from_config

from test_models import per_direction_expansion

ORDER = 4

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
nonzero = st.builds(Fraction, st.integers(1, 3), st.integers(1, 4))


def _text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _odd_map(power: int, coefficients: list) -> list:
    terms = [["*", _text(c), ["pow", "x0", n]] for n, c in enumerate(coefficients)]
    return ["*", ["pow", "w0", power], ["+", *terms]]


@st.composite
def odd_line_configs(draw) -> dict:
    # phi vanishes at x0 = 0, and its slope and the flow there share a sign,
    # so the leading phase coefficient is positive
    sign = draw(st.sampled_from([1, -1]))
    power = draw(st.sampled_from([1, 3]))
    phi = [0, sign * draw(nonzero), draw(rationals), draw(rationals)]
    flow = [sign * draw(nonzero), draw(rationals), draw(rationals)]
    lap = [draw(rationals), draw(rationals), draw(rationals)]
    return {
        "name": "odd-line", "group_dim": 1, "chart_dim": 1,
        "phi": _odd_map(power, phi),
        "flow_field": [_odd_map(power, flow)],
        "laplacian_phi": _odd_map(power, lap),
        "zero_points": [[0]], "orbit_volume": "1",
    }


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=odd_line_configs(), half_form=st.sampled_from([0, Fraction(1, 2), 1]))
def test_folded_line_expansion_matches_both_references(config, half_form):
    model = model_from_config(config)
    folded = geometric_expansion(model, None, half_form, ORDER, mode="exact")
    _, rows = per_direction_expansion(model, half_form, ORDER, 32, convert=lambda v: v)
    reference = expansion_series(rows, ORDER)
    assert folded.coefficients == reference.coefficients
    assert folded.odd_vanished == reference.odd_vanished
    # the raw partition and composition sums, within 1e-10 of the largest
    # coefficient (the odd ones vanish)
    floats = geometric_expansion(model, None, half_form, ORDER).coefficients
    scale = max(abs(c) for c in floats)
    for j, value in enumerate(floats):
        assert abs(zeta_geometric(j, half_form, model) - value) <= 1e-10 * scale, j


@st.composite
def odd_plane_configs(draw) -> dict:
    # phi = sum_i w_i (s_i x_i + quadratic terms) and x_i' = s_i w_i + terms
    # c w_a x_b, so the phase starts at sum_i s_i^2 w_i^2 t^2, which is
    # positive; the Laplacian is linear in w
    scales = [draw(st.sampled_from([1, -1])) * draw(nonzero) for _ in range(2)]
    monomials = [("x0", "x0"), ("x0", "x1"), ("x1", "x1")]

    def quadratic():
        return [["*", _text(draw(rationals)), *xs] for xs in monomials]

    def linear_in_w(with_constant):
        terms = [["*", _text(draw(rationals)), f"w{a}", f"x{b}"]
                 for a in range(2) for b in range(2)]
        if with_constant:
            terms += [["*", _text(draw(rationals)), f"w{a}"] for a in range(2)]
        return terms

    return {
        "name": "odd-plane", "group_dim": 2, "chart_dim": 2,
        "phi": ["+", *(["*", f"w{i}", ["+", ["*", _text(s), f"x{i}"], *quadratic()]]
                       for i, s in enumerate(scales))],
        "flow_field": [["+", ["*", _text(s), f"w{i}"], *linear_in_w(False)]
                       for i, s in enumerate(scales)],
        "laplacian_phi": ["+", *linear_in_w(True)],
        "zero_points": [[0, 0]], "orbit_volume": "1",
    }


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=odd_plane_configs(), half_form=st.sampled_from([0, Fraction(1, 2), 1]))
def test_plane_expansion_matches_the_per_direction_reference(config, half_form):
    model = model_from_config(config)
    batched = geometric_expansion(model, None, half_form, ORDER, 8)
    reference, profile = per_direction_expansion(model, half_form, ORDER, 8)
    assert [c.hex() for c in batched.coefficients] == [c.hex() for c in reference]
    assert batched.odd_vanished == expansion_series(profile, ORDER).odd_vanished


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=odd_plane_configs(), half_form=st.sampled_from([0, Fraction(1, 2), 1]))
def test_plane_vector_matches_numpy_lanes(config, half_form):
    model = model_from_config(config)
    rule = sphere_rule(2, 8)
    arrays = SphereRule(2, np.array(rule.nodes), np.array(rule.weights))
    with mock.patch.object(models, "sphere_rule", lambda dim, resolution: arrays):
        lanes = geometric_expansion(model, None, half_form, ORDER, 8)
    vector = geometric_expansion(model, None, half_form, ORDER, 8)
    assert [c.hex() for c in vector.coefficients] == [c.hex() for c in lanes.coefficients]
