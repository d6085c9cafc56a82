"""Hamiltonian models and the geometric front-end of the expansion.

A :class:`HamiltonianModel` packages the data of a compact group action
near its zero level in chart coordinates: the moment-map component
``phi`` per direction, the transport field ``flow_field``, the
Laplacian ``laplacian_phi``, the zero-level points, and the orbit
volume.  All three scalar maps must be jet-evaluable (built from ring
arithmetic and the dispatched elementary functions of :mod:`.jets`),
which is what lets one definition drive both the series pipeline and
numeric work on points and on arrays of points.

From a model, this module extracts per-direction radial series
(:func:`radial_profile`), bridges them to the generic expansion engine
(:func:`geometric_expansion`), and predicts the corrected and
uncorrected densities ``I`` and ``J`` from them
(:func:`density_series`).  It also builds the builtin models and loads
declarative configs.  The numeric densities are in :mod:`.oracle` and
the independent coefficient routes in :mod:`.crosscheck`.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from .engine import ExpansionResult, RadialProfile, Record, expansion_series, \
    sphere_rule
from .errors import DomainError
from .exprs import Positional, compile_expression
from .jets import TruncatedSeries, exp_series, is_vector, numpy_if_array, \
    ode_jet_transport

__all__ = [
    "HamiltonianModel",
    "RadialSeries",
    "radial_profile",
    "geometric_expansion",
    "density_series",
    "builtin_sphere_model",
    "gaussian_test_model",
    "quartic_test_model",
    "load_model",
    "resolve_model",
]

# radial_profile's bound on phi and on the phase's t^1 coefficient
# (relative to its leading coefficient) at the base point
_ZERO_LEVEL_TOL = 1e-9


class HamiltonianModel(Record):
    """Chart-level data of a group action near its zero level.

    ``phi(omega, point)``, ``flow_field(omega, point)`` and
    ``laplacian_phi(omega, point)`` take a direction tuple of length
    ``group_dim`` and a chart point of length ``chart_dim``; the maps
    must be odd in ``omega`` (direction linearity) and accept series
    entries.  Oddness is what lets the series path transport one
    direction of each mirrored pair of its rule (see
    :func:`geometric_expansion`), and it is checked when the model is
    built: each map is evaluated at ``omega`` and ``-omega`` for the
    coordinate directions and ``(1, 1/2, ..., 1/group_dim)``, at every
    zero point and at two small rational offsets from it, exactly where
    the maps keep ints and Fractions, else to ``1e-10`` of the larger
    value (or absolutely, below 1).  A map that is not odd there, that
    fails there, or a ``flow_field`` that does not return ``chart_dim``
    components there, is a :class:`~lapasym.errors.DomainError` naming
    the model.  The oddness check and the series path of group
    dimension 1 call the maps on plain numbers and jets of plain numbers
    only (the direction ``1``), so building a model and a
    group-dimension-1 ``expand`` need no numpy.  Elsewhere the maps
    receive batches and must compute elementwise: the numeric oracle
    passes the directions and points of a whole angular level as one
    float array per coordinate (in group dimension 1 too: its one level,
    the directions ``1`` and ``-1``, arrives as arrays of two entries,
    and the Jacobian check's one direction as arrays of one entry); the
    series path passes its rule's transported directions as one
    :class:`~lapasym.vector.Vector` per component in group dimension 2
    and one numpy array per component from 3 on, with jet points whose
    coefficients are such lanes; a map may return a scalar where every
    entry is the same.  The elementary functions of
    :mod:`.jets` and config models qualify; ``math.*`` calls do not.
    ``orbit_volume(point)`` is plain numeric.
    ``zero_chart`` and ``chart_density`` are optional and only needed by
    the Jacobian check: a parametrization ``s -> point`` of the zero
    level and the density of the volume form in chart coordinates.
    A nonpositive ``group_dim`` or ``chart_dim``, no zero point, or a
    zero point whose length is not ``chart_dim`` is refused first, by a
    :class:`~lapasym.errors.DomainError` naming the model.
    :meth:`replace` derives a model with some fields changed and checks
    it again.
    """

    _fields = ("group_dim", "chart_dim", "phi", "flow_field", "laplacian_phi",
               "zero_points", "orbit_volume", "name", "zero_chart", "chart_density")

    def __init__(
        self,
        group_dim: int,
        chart_dim: int,
        phi: Callable[[Sequence[Any], Sequence[Any]], Any],
        flow_field: Callable[[Sequence[Any], Sequence[Any]], Sequence[Any]],
        laplacian_phi: Callable[[Sequence[Any], Sequence[Any]], Any],
        zero_points: tuple,
        orbit_volume: Callable[[Sequence[Any]], float],
        name: str = "model",
        zero_chart: Callable[[float], Sequence[float]] | None = None,
        chart_density: Callable[[Sequence[float]], float] | None = None,
    ):
        self._fix(locals())
        if group_dim < 1 or chart_dim < 1:
            raise DomainError(f"model {name!r}: group_dim and chart_dim must be positive")
        if not zero_points:
            raise DomainError(f"model {name!r}: zero_points: needs at least one point")
        try:
            shaped = all(len(pt) == chart_dim for pt in zero_points)
        except TypeError:  # a number where a point belongs
            shaped = False
        if not shaped:
            raise DomainError(f"model {name!r}: zero_points: each point must have chart "
                              "dimension")
        _check_odd(self)

    def replace(self, **changes: Any) -> "HamiltonianModel":
        """This model with the given fields changed, built and checked anew."""
        fields = {name: getattr(self, name) for name in self._fields}
        return HamiltonianModel(**{**fields, **changes})


# the oddness check's offsets from each zero point: step * (1, 1/2, 1/3, ...)
_PROBE_STEPS = (Fraction(0), Fraction(1, 8), Fraction(-1, 16))
# a float map value and its value at -omega may miss exact oddness by this
# share of the larger one (absolutely, below 1)
_ODD_PROBE_TOL = 1e-10


def _check_odd(model: HamiltonianModel) -> None:
    # phi, laplacian_phi and each flow_field component at +-omega, at a few
    # fixed directions and points; no randomness, so the check is repeatable
    d = model.group_dim
    directions = dict.fromkeys([tuple(int(i == k) for i in range(d)) for k in range(d)]
                               + [tuple(Fraction(1, i + 1) for i in range(d))])
    for x0, step, omega in itertools.product(model.zero_points, _PROBE_STEPS, directions):
        point = tuple(x + step / (i + 1) for i, x in enumerate(x0))
        pair = (omega, tuple(-c for c in omega))
        try:
            with _named(model):
                values = [(model.phi(w, point), model.laplacian_phi(w, point),
                           *model.flow_field(w, point)) for w in pair]
        except (ArithmeticError, TypeError, AttributeError) as exc:
            raise DomainError(
                f"model {model.name!r} cannot be evaluated at omega = {_text(omega)}, "
                f"point {_text(point)}: {exc}"
            ) from None
        for w, value in zip(pair, values):
            if len(value) != model.chart_dim + 2:
                raise DomainError(
                    f"model {model.name!r}: flow_field returned {len(value) - 2} "
                    f"components for chart dimension {model.chart_dim}, at omega = "
                    f"{_text(w)}, point {_text(point)}"
                )
        names = ("phi", "laplacian_phi",
                 *(f"flow_field[{i}]" for i in range(model.chart_dim)))
        for name, a, b in zip(names, *values):
            if not _odd_pair(a, b):
                raise DomainError(
                    f"model {model.name!r} is not odd in omega: {name} is {a} at "
                    f"omega = {_text(omega)}, point {_text(point)}, and {b} at -omega"
                )


def _odd_pair(a: Any, b: Any) -> bool:
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a + b == 0
    return abs(a + b) <= _ODD_PROBE_TOL * max(1.0, abs(a), abs(b))


def _text(values: Sequence[Any]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


class RadialSeries(NamedTuple):
    """Radial jets along one direction: phase, log-weight, weight."""

    phase: TruncatedSeries
    log_weight: TruncatedSeries
    weight: TruncatedSeries


def _reference_point(model: HamiltonianModel, point):
    return tuple(model.zero_points[0]) if point is None else tuple(point)


def radial_profile(
    model: HamiltonianModel,
    omega: Sequence[Any],
    point: Sequence[Any] | None = None,
    order: int = 8,
    half_form: Any = 0,
) -> RadialSeries:
    """Radial phase/weight series along direction ``omega``.

    Phase ``= 2 * int phi`` and log-weight ``= int laplacian_phi`` along
    the flow through ``point`` are transported as two more coordinates
    of that flow, in one Taylor transport; weight ``= exp(half_form *
    log-weight)``.  Series are returned at radial order ``order``
    (so reduced phase coefficients are available up to ``order - 2``).
    ``omega`` holds plain numbers, one direction, or one sequence per
    component, a batch of directions; each series coefficient then has
    one lane per direction, the value that direction gives on its own.
    A numpy array becomes :class:`~lapasym.jets.Lanes`, any other
    sequence (the tuples of the circle rule) a
    :class:`~lapasym.vector.Vector` of floats, which needs no numpy;
    plain numbers stay as they are, so exact data along group dimension
    1's ``1`` stays exact.  The zero-level checks read
    each value as one float per direction.  A failed check names the
    model and the first failing direction; a
    :class:`~lapasym.errors.DomainError` of the model's maps (a
    logarithm of a nonpositive value, say) names the model.
    """
    if order < 2:
        raise DomainError("radial order must be at least 2")
    x0 = _reference_point(model, point)
    omega = tuple(map(_batch, omega))
    n = max((len(c) for c in omega if _batched(c)), default=1)
    with _named(model):
        level = [abs(v) for v in _per_direction(model.phi(omega, x0), n)]
    _refuse(model, omega, [v > _ZERO_LEVEL_TOL for v in level],
            lambda i: f"point {_text(x0)} is not on the zero level (phi = {level[i]:.3e})")

    def field(coords):
        # the chart point's flow, then d(phase)/dt and d(log-weight)/dt
        x = coords[:-2]
        return (*model.flow_field(omega, x), 2 * model.phi(omega, x),
                model.laplacian_phi(omega, x))

    with _named(model):
        *_, phase, log_weight = ode_jet_transport(field, (*x0, 0, 0), order)
    lead = _per_direction(phase.coefficient(2), n)
    _refuse(model, omega, [not v > 0.0 for v in lead],
            lambda i: "transport field is degenerate at the base point "
                      f"(leading phase coefficient {lead[i]:.3e})")
    # the phase starts at 0, so only its t^1 coefficient can fail to vanish
    low = _per_direction(phase.coefficient(1), n)
    _refuse(model, omega, [abs(v) > _ZERO_LEVEL_TOL * max(1.0, abs(c))
                           for v, c in zip(low, lead)],
            lambda i: "phase does not vanish to second order at the base point")
    return _weighted(phase, log_weight, half_form)


def _batch(component: Any) -> Any:
    # a direction component as lanes: an array as numpy Lanes, another
    # sequence as a Vector; a number stays as it is
    if numpy_if_array(component) is not None:
        from .lanes import Lanes

        return component.astype(float, copy=False).view(Lanes)
    if isinstance(component, (tuple, list)):
        from .vector import Vector

        return Vector(map(float, component))
    return component


def _batched(value: Any) -> bool:
    # lanes, one per direction: a numpy array or a vector
    return numpy_if_array(value) is not None or is_vector(value)


def _per_direction(value: Any, n: int) -> list[float]:
    # a value per direction, or one value all n directions share, as floats
    np = numpy_if_array(value)
    if np is not None:
        return np.broadcast_to(np.asarray(value, dtype=float), n).tolist()
    return list(value) if is_vector(value) else [_float(value)] * n


def _float(value: Any) -> float:
    # a number too large for a float reads as an infinity, which the
    # engine refuses
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@contextmanager
def _named(model: HamiltonianModel):
    # a domain error of the model's maps, with the model's name in front
    try:
        yield
    except DomainError as exc:
        raise DomainError(f"model {model.name!r}: {exc}") from None


def _refuse(model: HamiltonianModel, omega: Sequence[Any], failed: list[bool],
            reason: Callable[[int], str]) -> None:
    # a DomainError at the first direction where failed holds; failed has
    # one entry per direction
    if any(failed):
        i = failed.index(True)
        direction = tuple(float(c[i] if _batched(c) else c) for c in omega)
        raise DomainError(f"model {model.name!r}, direction {direction}: {reason(i)}")


def _weighted(phase: TruncatedSeries, log_weight: TruncatedSeries,
              half_form: Any) -> RadialSeries:
    return RadialSeries(phase, log_weight, exp_series(log_weight * half_form))


def _tables(series: RadialSeries, order: int) -> tuple:
    # engine table entries: reduced phase coefficients f_p = phase[t^(p+2)]
    # and weight coefficients g_p, for p = 0..order
    return ([series.phase.coefficient(p + 2) for p in range(order + 1)],
            [series.weight.coefficient(p) for p in range(order + 1)])


def geometric_expansion(
    model: HamiltonianModel,
    point: Sequence[Any] | None = None,
    half_form: Any = 0,
    order: int = 6,
    resolution: int = 32,
    mode: str = "float",
) -> ExpansionResult:
    """Expansion coefficients for the geometric phase/weight data.

    In every group dimension one radial profile carries the rule's
    nodes but its mirrored ones, one batch per direction component (in
    dimension 1 the one direction ``1``, as a plain number), and its
    coefficients are the engine's columns as they are: lanes, one per
    transported node, or numbers that those nodes share.  The lanes
    follow the rule's nodes: the circle's tuples travel as a
    :class:`~lapasym.vector.Vector`, so dimension 2 runs without numpy,
    and the numpy rules from dimension 3 on as numpy lanes, computed
    with numpy's floating-point warnings off (a value that overflows is
    refused below, by name).
    The maps are odd in ``omega`` (checked when the model is built), so
    the flow along ``-omega`` is the flow along ``omega`` run backwards,
    and the coefficient of ``t**p`` changes sign with ``p``: a mirrored
    node's data is its partner's with ``f_p`` and ``g_p`` times
    ``(-1)**p``, which is what :class:`~lapasym.engine.RadialProfile`
    assigns to the nodes its columns leave out.  In dimension 1 the
    node ``-1`` is left out; from dimension 2 on the rules mirror no
    node.  ``mode="float"`` passes the numbers through ``float``.
    ``mode="exact"`` hands them over as they are, and needs each to be
    an int or a Fraction; the first that is not, phase first, raises
    :class:`~lapasym.errors.DomainError`, naming the model.  Float data
    comes from float chart values, a float ``half_form`` or, from
    dimension 2 on, the rule's directions, so exact mode refuses those
    dimensions, and a ``half_form`` that is not an int or a Fraction,
    before any transport.  A radial coefficient with no
    finite float, or an expansion coefficient that comes out inf or
    nan, is a :class:`~lapasym.errors.DomainError` naming the model and
    the index.
    """
    if mode not in ("float", "exact"):
        raise DomainError(f"unknown arithmetic mode {mode!r}")
    if mode == "exact" and model.group_dim > 1:
        raise DomainError(
            f"exact mode needs rational radial data; model {model.name!r} of group "
            f"dimension {model.group_dim} has float rule directions"
        )
    if mode == "exact" and not isinstance(half_form, (int, Fraction)):
        hint = (f"; write it as {Fraction(repr(half_form))}"
                if isinstance(half_form, float) and math.isfinite(half_form) else "")
        raise DomainError(
            f"exact mode needs a rational half-form weight; model {model.name!r} of "
            f"group dimension {model.group_dim} was given the "
            f"{type(half_form).__name__} weight {half_form!r}{hint}"
        )
    return _expansions(model, point, (half_form,), order, resolution, mode)[0]


def _expansions(model: HamiltonianModel, point: Sequence[Any] | None,
                half_forms: Sequence[Any], order: int, resolution: int,
                mode: str) -> list[ExpansionResult]:
    # geometric_expansion at each half-form weight, from one transport: the
    # flow, the phase and the log-weight do not depend on the weight
    rule = sphere_rule(model.group_dim, resolution)
    kept = len(rule) - rule.mirrored
    np = numpy_if_array(rule.nodes)
    if kept == 1:
        omega = tuple(rule.nodes[0])
    elif np is None:
        omega = tuple(zip(*rule.nodes[:kept]))
    else:
        omega = tuple(np.ascontiguousarray(column) for column in rule.nodes[:kept].T)
    results = []
    # numpy lanes, like floats, overflow to inf, but they also warn; the
    # refusal of the value that is not finite is the whole report
    with np.errstate(all="ignore") if np is not None else nullcontext():
        # reduced phase coefficient f_order is phase[t^(order + 2)]
        transported = radial_profile(model, omega, point, order + 2)
        for half_form in half_forms:
            phase, weight = _tables(
                _weighted(transported.phase, transported.log_weight, half_form), order)
            if mode == "float":
                phase, weight = ([c if _batched(c) else _float(c) for c in table]
                                 for table in (phase, weight))
            else:
                # each phase coefficient, then each weight coefficient
                for value in (*phase, *weight):
                    if not isinstance(value, (int, Fraction)):
                        raise DomainError(
                            f"exact mode needs rational radial data; model "
                            f"{model.name!r} of group dimension {model.group_dim} "
                            f"gives the {type(value).__name__} {value!r}"
                        )
            with _named(model):
                results.append(expansion_series(RadialProfile(rule, phase, weight), order))
    return results


# ------------------------------------------------------------ densities by series

def _sweep(values, one: Callable[[float], float]):
    if isinstance(values, numbers.Real):
        return one(float(values))
    return [one(float(v)) for v in values]


# density kind -> (half-form weight a, divisor c of k, power p of the orbit
# volume): the density is (k / c)^{d/2} vol^p j_a(k)
_DENSITIES = {"I": (1, 2.0 * math.pi, 2), "J": (Fraction(1, 2), math.pi, 1)}


def _density_data(model: HamiltonianModel, kind: str, point: Sequence[Any] | None):
    try:
        half_form, divisor, power = _DENSITIES[kind]
    except KeyError:
        raise DomainError(f"density kind must be 'I' or 'J', not {kind!r}") from None
    return half_form, divisor, _orbit_volume(model, _reference_point(model, point)) ** power


def _orbit_volume(model: HamiltonianModel, x0: tuple) -> float:
    # the volume that weighs a density, refused unless finite and positive
    with _named(model):
        volume = float(model.orbit_volume(x0))
    if not 0.0 < volume < math.inf:
        raise DomainError(f"model {model.name!r}: orbit_volume at point {_text(x0)} is "
                          f"{volume!r}, not finite and positive")
    return volume


def density_series(
    model: HamiltonianModel,
    kind: str | Sequence[str],
    k: float | Sequence[float] = 100.0,
    point: Sequence[Any] | None = None,
    order: int = 6,
    resolution: int = 32,
):
    """Series prediction of density ``kind``; ``k = inf`` gives its large-k limit.

    The limit comes from the leading coefficient alone, which does not
    depend on the half-form weight.  A sequence of kinds, such as
    ``("I", "J")``, gives a list with one such result per kind, from one
    transport of the rule's directions, as in
    :func:`~lapasym.oracle.density`.
    """
    if isinstance(kind, str):
        return density_series(model, (kind,), k, point, order, resolution)[0]
    data = [_density_data(model, one, point) for one in kind]
    d = model.group_dim
    results = _expansions(model, _reference_point(model, point),
                          [half_form for half_form, _, _ in data], order, resolution, "float")
    sweeps = []
    for (_, divisor, scale), result in zip(data, results):
        def one(kv: float) -> float:
            if math.isinf(kv):
                return scale * result.coefficients[0] / divisor ** (d / 2.0)
            return (kv / divisor) ** (d / 2.0) * scale * result.partial_sum(kv)

        sweeps.append(_sweep(k, one))
    return sweeps


# ------------------------------------------------------------ builtin models

_TWO_PI = 2.0 * math.pi


def builtin_sphere_model() -> HamiltonianModel:
    """Circle action rotating the unit sphere about its axis.

    Cylindrical chart ``(theta, z)`` with unit area density; the
    generator is scaled to period one, so the moment component is
    ``2 pi w z``, the transport field ``(0, 2 pi w (1 - z^2))``, the
    Laplacian ``-4 pi w z``, and every orbit through height ``z`` has
    volume ``2 pi sqrt(1 - z^2)``.
    """

    def phi(omega, point):
        return _TWO_PI * omega[0] * point[1]

    def flow_field(omega, point):
        z = point[1]
        return (0, _TWO_PI * omega[0] * (1 - z * z))

    def laplacian_phi(omega, point):
        return -2.0 * _TWO_PI * omega[0] * point[1]

    def orbit_volume(point):
        return _TWO_PI * math.sqrt(1.0 - float(point[1]) ** 2)

    return HamiltonianModel(
        group_dim=1,
        chart_dim=2,
        phi=phi,
        flow_field=flow_field,
        laplacian_phi=laplacian_phi,
        zero_points=((0.0, 0.0),),
        orbit_volume=orbit_volume,
        name="sphere",
        zero_chart=lambda s: (float(s), 0.0),
        chart_density=lambda point: 1.0,
    )


def gaussian_test_model() -> HamiltonianModel:
    """Flat test model with a purely quadratic radial phase."""
    return HamiltonianModel(
        group_dim=1,
        chart_dim=1,
        phi=lambda omega, point: omega[0] * point[0],
        flow_field=lambda omega, point: (omega[0],),
        laplacian_phi=lambda omega, point: 0,
        zero_points=((0,),),
        orbit_volume=lambda point: 1.0,
        name="gaussian",
    )


def quartic_test_model() -> HamiltonianModel:
    """Flat test model whose radial phase is rho^2 + rho^4."""

    def phi(omega, point):
        x = point[0]
        return omega[0] * (x + 2 * x * x * x)

    return HamiltonianModel(
        group_dim=1,
        chart_dim=1,
        phi=phi,
        flow_field=lambda omega, point: (omega[0],),
        laplacian_phi=lambda omega, point: 0,
        zero_points=((0,),),
        orbit_volume=lambda point: 1.0,
        name="quartic",
    )


_BUILTIN_FACTORIES = {
    "sphere": builtin_sphere_model,
    "gaussian": gaussian_test_model,
    "quartic": quartic_test_model,
}


# ------------------------------------------------------------ declarative configs

def _number(name: str, value: Any) -> Any:
    """A zero point's coordinate: a finite JSON number, or an exact string
    such as ``"1/3"``, read as an int where it is whole and else as a
    Fraction."""
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"model {name!r}: zero_points: entry {json.dumps(value)} "
                          "is not finite")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            parsed = Fraction(value)
            return parsed.numerator if parsed.denominator == 1 else parsed
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"model {name!r}: zero_points entry {json.dumps(value)} is not a number")


def _compiled(name: str, key: str, node: Any, symbols: tuple):
    """``node`` bound to ``symbols`` by position; a refusal names the model and key."""
    try:
        return compile_expression(Positional(node, symbols))
    except DomainError as exc:
        raise DomainError(f"model {name!r}: {key}: {exc}") from None


def model_from_config(config: dict) -> HamiltonianModel:
    """Build a model from a declarative config dictionary.

    Every expression is checked when the model loads: ``phi``,
    ``flow_field`` and ``laplacian_phi`` may use ``x0 .. x{chart_dim-1}``
    and ``w0 .. w{group_dim-1}``, ``orbit_volume`` and ``chart_density``
    only the ``x<i>``, and ``zero_chart`` only ``s``.
    """
    name = str(config.get("name", "config-model"))

    def refuse(key: str, message: str) -> DomainError:
        return DomainError(f"model {name!r}: {key}: {message}")

    required = ("group_dim", "chart_dim", "phi", "flow_field", "laplacian_phi",
                "zero_points", "orbit_volume")
    for key in required:
        if key not in config:
            raise DomainError(f"model {name!r}: config is missing {key!r}")
    for key in ("group_dim", "chart_dim"):
        if not isinstance(config[key], int) or isinstance(config[key], bool):
            raise refuse(key, "must be an integer")
    group_dim = config["group_dim"]
    chart_dim = config["chart_dim"]
    # a point's values come first, then the direction's: (x0, .., w0, ..)
    coords = tuple(f"x{i}" for i in range(chart_dim))
    full = coords + tuple(f"w{i}" for i in range(group_dim))

    phi_fn = _compiled(name, "phi", config["phi"], full)
    lap_fn = _compiled(name, "laplacian_phi", config["laplacian_phi"], full)
    flow_exprs = config["flow_field"]
    if not isinstance(flow_exprs, list) or len(flow_exprs) != chart_dim:
        raise refuse("flow_field", "needs one expression per chart coordinate")
    flow_fns = [_compiled(name, "flow_field", e, full) for e in flow_exprs]
    volume_fn = _compiled(name, "orbit_volume", config["orbit_volume"], coords)

    points = config["zero_points"]
    if not isinstance(points, list) or not all(isinstance(pt, list) for pt in points):
        raise refuse("zero_points", "must be a list of points, each a list of numbers")
    zero_points = tuple(tuple(_number(name, c) for c in pt) for pt in points)

    zero_chart = None
    if "zero_chart" in config:
        chart_exprs = config["zero_chart"]
        if not isinstance(chart_exprs, list) or len(chart_exprs) != chart_dim:
            raise refuse("zero_chart", "needs one expression per chart coordinate")
        chart_fns = [_compiled(name, "zero_chart", e, ("s",)) for e in chart_exprs]
        zero_chart = lambda s: tuple(fn((s,)) for fn in chart_fns)
    density_fn = None
    if "chart_density" in config:
        density_fn = _compiled(name, "chart_density", config["chart_density"], coords)

    def flow_field(omega, point):
        values = (*point, *omega)
        return tuple(fn(values) for fn in flow_fns)

    return HamiltonianModel(
        group_dim=group_dim,
        chart_dim=chart_dim,
        phi=lambda omega, point: phi_fn((*point, *omega)),
        flow_field=flow_field,
        laplacian_phi=lambda omega, point: lap_fn((*point, *omega)),
        zero_points=zero_points,
        orbit_volume=volume_fn,
        name=name,
        zero_chart=zero_chart,
        chart_density=density_fn,
    )


def load_model(path: str) -> HamiltonianModel:
    """Read a declarative model config (JSON) from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read model config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"model config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise DomainError("model config must be a JSON object")
    return model_from_config(config)


def resolve_model(source: str) -> HamiltonianModel:
    """Resolve ``builtin:<name>`` or a config file path to a model."""
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        try:
            return _BUILTIN_FACTORIES[name]()
        except KeyError:
            known = ", ".join(sorted(_BUILTIN_FACTORIES))
            raise DomainError(
                f"unknown builtin model {name!r} (available: {known})"
            ) from None
    return load_model(source)
