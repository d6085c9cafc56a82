"""Independent routes to the expansion coefficients, kept as cross-checks.

No command uses them; the tests compare them with the series route of
:mod:`.models`.  :func:`direction_atoms` takes iterated derivatives of a
model's maps along its flow field by nested first-order jets
(:func:`iterated_flow_derivatives`), with no transport solve.
:func:`zeta_geometric` combines them by the raw Bell and series-power
sums of :mod:`.bell`, :func:`zeta2_reference` by the closed second
coefficient, and :func:`profile_from_atoms` hands them to the engine.
:func:`leading_term_identity` and the two ``scaled_*`` models check the
normalization of the generator against the orbit volume.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Sequence

from .bell import complete_bell, generalized_binomial, series_power_coefficient
from .engine import RadialProfile, SphereRule, gamma_value, sphere_rule
from .errors import DomainError
from .jets import TruncatedSeries, listed
from .models import HamiltonianModel, _orbit_volume, _reference_point, _tables, \
    _weighted, geometric_expansion

__all__ = ["directional_derivative", "iterated_flow_derivatives", "direction_atoms",
           "profile_from_atoms", "zeta_geometric", "zeta_geometric_from_atoms",
           "zeta2_reference", "zeta2_reference_from_atoms", "leading_term_identity",
           "scaled_generator_model", "scaled_volume_model"]


# ------------------------------------------------------- nested derivatives

def directional_derivative(
    fn: Callable[[Sequence[Any]], Any],
    field: Callable[[Sequence[Any]], Sequence[Any]],
) -> Callable[[Sequence[Any]], Any]:
    """The map ``x -> sum_i field_i(x) * d fn / d x_i (x)``.

    Partial derivatives are read off first-order jets, so the returned
    callable again accepts points whose entries are scalars or series,
    and the construction can be nested to any depth.
    """

    def derived(point: Sequence[Any]) -> Any:
        vec = field(point)
        total: Any = 0
        for i in range(len(point)):
            jet_point = [
                TruncatedSeries.variable(point[k], 1)
                if k == i
                else TruncatedSeries.constant(point[k], 1)
                for k in range(len(point))
            ]
            value = fn(jet_point)
            partial = (
                value.coefficient(1) if isinstance(value, TruncatedSeries) else 0
            )
            total = total + vec[i] * partial
        return total

    return derived


def iterated_flow_derivatives(
    fn: Callable[[Sequence[Any]], Any],
    field: Callable[[Sequence[Any]], Sequence[Any]],
    point: Sequence[Any],
    count: int,
) -> list[Any]:
    """Values ``[fn, L fn, ..., L^count fn]`` at ``point``.

    ``L`` is the derivative along ``field``; powers are built by nesting
    :func:`directional_derivative`, with no ODE solve involved.
    """
    values = []
    current = fn
    for m in range(count + 1):
        values.append(current(point))
        if m < count:
            current = directional_derivative(current, field)
    return values


# ------------------------------------------------------------ atoms

def direction_atoms(
    model: HamiltonianModel,
    omega: Sequence[Any],
    point: Sequence[Any] | None,
    flow_count: int,
    lap_count: int,
) -> tuple[tuple, tuple]:
    """Iterated flow derivatives of ``phi`` and ``laplacian_phi``.

    Returns ``(flow_atoms, lap_atoms)`` where ``flow_atoms[i]`` is the
    ``i + 1``-fold derivative of ``phi`` along the flow field at the
    base point and ``lap_atoms[i]`` the ``i``-fold derivative of
    ``laplacian_phi``, computed by nested first-order jets with no
    transport solve involved.
    """
    x0 = _reference_point(model, point)
    field = lambda coords: model.flow_field(omega, coords)
    flow_values = iterated_flow_derivatives(
        lambda c: model.phi(omega, c), field, x0, flow_count
    )
    lap_values = iterated_flow_derivatives(
        lambda c: model.laplacian_phi(omega, c), field, x0, max(lap_count - 1, 0)
    )
    return tuple(flow_values[1:]), tuple(lap_values[:lap_count])


def profile_from_atoms(
    rule: SphereRule,
    atom_table: Sequence[tuple[Sequence[Any], Sequence[Any]]],
    order: int,
    half_form: Any = 0,
) -> RadialProfile:
    """Coefficient columns built directly from per-direction atoms.

    ``atom_table[i]`` is the ``(flow_atoms, lap_atoms)`` pair for node
    ``i``; reduced phase coefficient ``p`` is ``2 * flow_atoms[p] /
    (p + 2)!`` and the weight series is the exponential of the
    factorial-rescaled Laplacian atoms.  The columns are object arrays,
    so exact atoms stay exact.  This is the bridge used by the
    cross-implementation agreement tests.
    """
    import numpy as np

    rows = []
    for flow_atoms, lap_atoms in atom_table:
        if len(flow_atoms) < order + 1 or len(lap_atoms) < order:
            raise DomainError("atom table too short for the requested order")
        phase = TruncatedSeries(
            [0, 0] + [flow_atoms[p] * Fraction(2, math.factorial(p + 2))
                      for p in range(order + 1)]
        )
        log_weight = TruncatedSeries(
            [0] + [lap_atoms[p - 1] * Fraction(1, math.factorial(p))
                   for p in range(1, order + 1)]
        )
        rows.append(_tables(_weighted(phase, log_weight, half_form), order))
    phase_rows, weight_rows = zip(*rows)
    return RadialProfile(rule, *(np.array(table, dtype=object).T
                                 for table in (phase_rows, weight_rows)))


# ------------------------------------------------------------ raw coefficient sums

def _power(value: Any, exponent: int) -> Any:
    if isinstance(value, int):
        value = Fraction(value)
    return value ** exponent


def _weight_block_sum(q: int, half_form: Any, lap_atoms: Sequence[Any]) -> Any:
    # weight-series coefficient q: one half_form per block of each partition
    scaled = [half_form * atom for atom in lap_atoms[:q]]
    return complete_bell(q, scaled) * Fraction(1, math.factorial(q))


def _phase_tail_sum(
    m: int, exponent: Fraction, flow_atoms: Sequence[Any]
) -> Any:
    # phase-tail contribution at radial order m: powers r of the reduced
    # phase tail sum_n 2 * flow_atoms[n] / (n + 2)! t^n, n >= 1
    tail = [flow_atoms[n] * Fraction(2, math.factorial(n + 2)) for n in range(1, m + 1)]
    return sum(
        generalized_binomial(-exponent, r) * _power(flow_atoms[0], -r)
        * series_power_coefficient(m, r, tail)
        for r in range(m + 1)
    )


def _direction_bracket(
    j: int, half_form: Any, dim: int, flow_atoms: Sequence[Any], lap_atoms: Sequence[Any]
) -> Any:
    exponent = Fraction(dim + j, 2)
    total: Any = 0
    for m in range(j + 1):
        weight_part = _weight_block_sum(j - m, half_form, lap_atoms)
        phase_part = _phase_tail_sum(m, exponent, flow_atoms)
        total = total + weight_part * phase_part
    return total


def _rule_atoms(
    model: HamiltonianModel,
    point: Sequence[Any] | None,
    resolution: int,
    flow_count: int,
    lap_count: int,
) -> tuple[list[tuple[tuple, tuple]], list[float]]:
    # (flow_atoms, lap_atoms) at each node of the sphere rule, and its weights
    rule = sphere_rule(model.group_dim, resolution)
    atom_table = [
        direction_atoms(model, tuple(row), point, flow_count, lap_count)
        for row in listed(rule.nodes)
    ]
    return atom_table, [float(w) for w in rule.weights]


def zeta_geometric_from_atoms(
    j: int,
    half_form: Any,
    dim: int,
    atom_table: Sequence[tuple[Sequence[Any], Sequence[Any]]],
    weights: Sequence[float],
) -> float:
    """Raw-sum coefficient from per-direction atoms and rule weights."""
    if j < 0:
        raise DomainError("coefficient index must be nonnegative")
    total = math.fsum(
        w
        * float(flow_atoms[0]) ** (-(dim + j) / 2.0)
        * float(_direction_bracket(j, half_form, dim, flow_atoms, lap_atoms))
        for (flow_atoms, lap_atoms), w in zip(atom_table, weights)
    )
    return 0.5 * gamma_value(Fraction(dim + j, 2)) * total


def zeta_geometric(
    j: int,
    half_form: Any,
    model: HamiltonianModel,
    point: Sequence[Any] | None = None,
    resolution: int = 32,
) -> float:
    """Expansion coefficient by the raw partition/composition sums.

    Independent of the engine pipeline: atoms come from nested
    directional derivatives instead of transported series, and the
    radial algebra is the explicit double sum instead of the series
    recurrences.  The two routes must agree.
    """
    atom_table, weights = _rule_atoms(model, point, resolution, j + 1, max(j, 1))
    return zeta_geometric_from_atoms(j, half_form, model.group_dim, atom_table, weights)


def zeta2_reference_from_atoms(
    half_form: Any,
    dim: int,
    atom_table: Sequence[tuple[Sequence[Any], Sequence[Any]]],
    weights: Sequence[float],
) -> float:
    """Closed-form second coefficient from per-direction atoms.

    Transcribed term by term; both quadratic weight terms carry a
    factor 1/2 because the weight scales per block, not per order.
    """
    a = half_form
    half = Fraction(1, 2)
    exponent = Fraction(dim + 2, 2)
    total = 0.0
    for (flow_atoms, lap_atoms), w in zip(atom_table, weights):
        a1, a2, a3 = flow_atoms[0], flow_atoms[1], flow_atoms[2]
        d1, d2 = lap_atoms[0], lap_atoms[1]
        bracket = a * d2 * half + a * a * d1 * d1 * half
        bracket = bracket - exponent * (
            a * d1 * a2 * Fraction(1, 3) + a3 * Fraction(1, 12)
        ) * _power(a1, -1)
        bracket = bracket + generalized_binomial(-exponent, 2) \
            * a2 * a2 * Fraction(1, 9) * _power(a1, -2)
        total += w * float(a1) ** (-float(exponent)) * float(bracket)
    return 0.25 * dim * gamma_value(Fraction(dim, 2)) * total


def zeta2_reference(
    half_form: Any,
    model: HamiltonianModel,
    point: Sequence[Any] | None = None,
    resolution: int = 32,
) -> float:
    """Second expansion coefficient by the closed displayed form."""
    atom_table, weights = _rule_atoms(model, point, resolution, 3, 2)
    return zeta2_reference_from_atoms(half_form, model.group_dim, atom_table, weights)


def leading_term_identity(
    model: HamiltonianModel,
    point: Sequence[Any] | None = None,
    resolution: int = 32,
) -> tuple[float, float]:
    """(engine leading coefficient, pi^{d/2} / orbit volume).

    Equality of the two is the normalization self-test: it holds
    exactly when the generator scaling and the orbit volume are
    mutually consistent (unit Haar mass), and a deliberate generator
    rescale must break it by the matching factor.
    """
    x0 = _reference_point(model, point)
    result = geometric_expansion(model, x0, 0, 0, resolution)
    volume = _orbit_volume(model, x0)
    return result.coefficients[0], math.pi ** (model.group_dim / 2.0) / volume


# ------------------------------------------------------------ model wrappers

def scaled_generator_model(model: HamiltonianModel, factor: float) -> HamiltonianModel:
    """Rescale the generator maps, leaving the orbit volume untouched."""
    return model.replace(
        phi=lambda omega, point: model.phi(omega, point) * factor,
        flow_field=lambda omega, point: tuple(
            v * factor for v in model.flow_field(omega, point)
        ),
        laplacian_phi=lambda omega, point: model.laplacian_phi(omega, point) * factor,
        name=f"{model.name}/generator*{factor}",
    )


def scaled_volume_model(model: HamiltonianModel, factor: float) -> HamiltonianModel:
    """Rescale the reported orbit volume only."""
    return model.replace(
        orbit_volume=lambda point: model.orbit_volume(point) * factor,
        name=f"{model.name}/vol*{factor}",
    )
