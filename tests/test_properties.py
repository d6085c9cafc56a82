"""Property tests over random odd rational models in group dimension 1.

A model ``phi = w0^m p(x0)``, ``flow_field = w0^m q(x0)``,
``laplacian_phi = w0^m r(x0)`` with an odd power ``m`` and rational
polynomials is odd in the direction, so the series path transports the
direction 1 alone and leaves the row of -1 out for the engine to fold
from it.  The folded expansion must equal the reference that transports
each direction on its own, exactly, and agree with the independent
raw-sum route.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lapasym.crosscheck import zeta_geometric
from lapasym.engine import expansion_series
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
