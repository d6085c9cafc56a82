"""The numeric oracle: densities by flows and quadrature, independent of
the series route.

:func:`j_a_numeric` and :func:`density` carry all the directions of an
angular level as one DOP853 flow, with the phase and log-weight
integrals, and hand its radial integrand to :func:`polar_laplace_integral`:
one QUADPACK call (QAG) in the radius per level, the line's two
directions in one dimension, nested circles in two, Gauss-Legendre times
azimuth grids in three, each level's directions evaluated together at
the 21 radii of a Kronrod rule; it refuses other dimensions.  Both
integrators, and their tolerances, are in :mod:`.integrators`, imported
on first use.  :func:`numeric_laplace_integral` is the quadrature's
pointwise front end, :func:`convergence_order_fit` fits a remainder's
decay, and :func:`jacobian_tau_check` compares the product formula for
the transport Jacobian against finite differences.

Besides the model's maps, the oracle shares with the series route only
the names that ``tests/test_import_graph.py`` pins: the model class and
reference point, the density kinds and k sweep of :mod:`.models`,
:func:`~lapasym.engine.sphere_rule` (its circle levels) and
:func:`~lapasym.jets.exp`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from .engine import sphere_rule
from .errors import DomainError, QuadratureError
from .jets import exp
from .models import HamiltonianModel, _density_data, _reference_point, _sweep

if TYPE_CHECKING:
    import numpy as np

__all__ = ["IntegralEstimate", "numeric_laplace_integral", "polar_laplace_integral",
           "convergence_order_fit", "j_a_numeric", "density", "jacobian_tau_check"]

# exp(-x) underflows near x = 745; cutoffs leave a wide margin past that
_PHASE_CUTOFF = 760.0
_MAX_FLOW_SPAN = 4096.0
# central-difference step of jacobian_tau_check, in time and zero-level parameter
_JACOBIAN_STEP = 1e-4


# ---------------------------------------------------------------- polar quadrature

class IntegralEstimate(NamedTuple):
    value: float
    error_bound: float


# a level's directions go through its integrand in blocks of at most this
# many, which bounds the state of one vectorized flow solve
_LEVEL_BLOCK = 512

Level = Callable[["np.ndarray"], Callable[["np.ndarray"], Any]]


def _point_level(phase: Callable, amplitude: Callable, k: float) -> Level:
    def level(nodes: np.ndarray) -> Callable[[np.ndarray], Any]:
        def values(rho: np.ndarray) -> Any:
            point = tuple(rho[:, None] * coordinate for coordinate in nodes.T)
            return exp(-k * phase(point)) * amplitude(point)

        return values

    return level


def numeric_laplace_integral(
    phase: Callable[[Sequence[Any]], Any],
    amplitude: Callable[[Sequence[Any]], Any],
    dim: int,
    k: float,
    tol: float = 1e-10,
    radius: float = 1.0,
) -> IntegralEstimate:
    """Adaptive evaluation of ``integral exp(-k phase(x)) amplitude(x) dx``.

    The ball of the given (finite) radius is integrated by
    :func:`polar_laplace_integral`, in dimension 1, 2 or 3; other
    dimensions raise :class:`~lapasym.errors.DomainError`.  The polar
    quadrature asks for a whole angular level at once: given the level's
    ``n`` unit nodes, a function of an array of ``m`` radii that returns
    the ``(m, n)`` integrand values.
    This function is the pointwise adapter that builds such a level:
    ``phase`` and ``amplitude`` receive the level's points at the ``m``
    radii as a tuple of ``(m, n)`` coordinate arrays and must compute
    elementwise.
    Independent of the series engine by construction.
    Raises :class:`~lapasym.errors.QuadratureError` (carrying the best
    estimate and its bound) when the tolerance cannot be certified.
    """
    if not k > 0:
        raise DomainError("asymptotic parameter k must be positive")
    return polar_laplace_integral(_point_level(phase, amplitude, k), dim, tol, radius)


def _angular_level(dim: int, n: int, first: bool) -> tuple[np.ndarray, np.ndarray, float]:
    """New nodes and weights of angular level ``n``, and the share of the
    previous level's estimate that carries over."""
    import numpy as np

    if dim == 2:
        # nested circle: the even nodes of sphere_rule(2, n) are the level
        # before's, so a level after the first asks only for its odd ones
        rule = sphere_rule(2, n)
        nodes, weights = np.array(rule.nodes), np.array(rule.weights)
        if first:
            return nodes, weights, 0.0
        return nodes[1::2], weights[1::2], 0.5
    # Gauss-Legendre in the polar cosine times a midpoint azimuth; these do
    # not nest, so every level is a full pass
    x, w = np.polynomial.legendre.leggauss(n)
    t = 2.0 * math.pi * (np.arange(2 * n) + 0.5) / (2 * n)
    st = np.sqrt(np.maximum(0.0, 1.0 - x ** 2))
    nodes = np.stack([
        np.outer(st, np.cos(t)).ravel(),
        np.outer(st, np.sin(t)).ravel(),
        np.repeat(x, 2 * n),
    ], axis=1)
    return nodes, np.repeat(w * math.pi / n, 2 * n), 0.0


def polar_laplace_integral(
    level: Level,
    dim: int,
    tol: float = 1e-10,
    radius: float = 1.0,
) -> IntegralEstimate:
    """Integral over the ball of an integrand given one angular level at a time.

    ``level(nodes)`` receives unit directions as the rows of an
    ``(n, dim)`` array and returns a function of an array ``rho`` of
    ``m`` radii that gives the ``(m, n)`` integrand values at
    ``rho[i] * node``; the caller evaluates all of a level's directions
    at all the radii together, for instance from one vectorized flow.
    Nodes come at most ``_LEVEL_BLOCK`` at a time.

    Each angular level is one QUADPACK call (QAG) in the radius on
    ``[0, radius]``, on the weighted sum of its directions' integrands,
    which it asks for once per 21-point rule, at the rule's radii.
    In one dimension the one level is ``sphere_rule(1)``, the nodes
    ``+1`` and ``-1`` with unit weights; that rule is exact, so its
    estimate is final and its radial error, within ``tol / 2``, is the
    bound.  In two and three dimensions levels are refined until two
    successive estimates agree within ``tol``.  The circle's levels
    nest (nodes ``2 pi i / n``, ``n = 8, 16, ..., 512``): level ``2n``
    asks only for its ``n`` new nodes and reuses level ``n``'s
    estimate, ``T_2n = T_n / 2 + (2 pi / 2n) * integral of their
    sum``.  The sphere's Gauss-Legendre times azimuth levels (``n = 8,
    ..., 64`` polar nodes) are full passes.  The radial error of each
    of these estimates stays within ``tol / 8``.  The tolerance and
    the radius must be finite.  Raises :class:`~lapasym.errors.QuadratureError` (carrying
    the best estimate and its bound) when the tolerance cannot be
    certified.
    """
    if dim not in (1, 2, 3):
        raise DomainError("polar integration needs dimension 1, 2 or 3")
    if not 0 < tol < math.inf or not 0 < radius < math.inf:
        raise DomainError("tolerance and radius must be positive and finite")
    import numpy as np

    # imported on the first call, so that loading the oracle does not
    # compile the integrators
    from .integrators import quad

    def level_integral(nodes: np.ndarray, weights: np.ndarray, budget: float):
        blocks = [
            (level(nodes[i:i + _LEVEL_BLOCK]), weights[i:i + _LEVEL_BLOCK])
            for i in range(0, len(nodes), _LEVEL_BLOCK)
        ]

        def weighted(rho: np.ndarray) -> np.ndarray:
            total = 0.0
            for values, w in blocks:
                total = total + np.sum(w * values(rho), axis=-1)
            # Python's float power: numpy's square can differ in the last bit
            return total * np.array([r ** (dim - 1) for r in rho.tolist()])

        return quad(weighted, 0.0, radius, epsabs=budget)

    if dim == 1:
        # the two-point rule is exact, so its one level is final
        rule = sphere_rule(1)
        value, err = level_integral(np.array(rule.nodes), np.array(rule.weights), tol / 2)
        if err > tol:
            raise QuadratureError("radial quadrature", value, err, tol)
        return IntegralEstimate(value, err)

    previous = None
    radial_err = 0.0
    n = 8
    budget = 512 if dim == 2 else 64
    while n <= budget:
        nodes, weights, kept = _angular_level(dim, n, previous is None)
        # the carried share of the radial error plus this level's stays in tol / 8
        value, err = level_integral(nodes, weights, (1.0 - kept) * tol / 8.0)
        estimate = kept * previous + value if kept else value
        radial_err = kept * radial_err + err
        if previous is not None:
            bound = abs(estimate - previous) + radial_err
            if bound <= tol:
                return IntegralEstimate(estimate, bound)
        previous = estimate
        n *= 2
    raise QuadratureError(
        "angular refinement exhausted its budget",
        previous if previous is not None else math.nan,
        math.inf,
    )


def convergence_order_fit(ks: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of ``log error`` against ``log k``.

    Needs at least three strictly positive samples; errors at the
    rounding floor should be excluded by the caller before fitting.
    """
    if len(ks) != len(errors) or len(ks) < 3:
        raise DomainError("need at least three (k, error) samples")
    if any(not k > 0 for k in ks) or any(not e > 0 for e in errors):
        raise DomainError("fit samples must be strictly positive")
    import numpy as np

    slope, _ = np.polyfit(np.log(np.asarray(ks, dtype=float)),
                          np.log(np.asarray(errors, dtype=float)), 1)
    return float(slope)


# ------------------------------------------------------------ numeric densities

class _FlowFailure(QuadratureError):
    """A flow solve failed; the message names the model, and no k is involved."""


class _MapRefusal(DomainError):
    """A model's map refused a value in a flow solve; the caller names the model."""


def _augmented_flow(model: HamiltonianModel, directions: tuple,
                    x0: tuple) -> Callable[[float], Any]:
    """``span -> dense flow`` of every direction in ``directions``,
    carrying the phase and log-weight accumulators: one
    :class:`~lapasym.integrators.Dop853` solve, which serves every span.

    The state holds one row per chart coordinate, then the phase and the
    log-weight, each over the directions; the model's maps see each row
    as a numpy array and must compute elementwise; a map's own refusal
    becomes a :class:`_MapRefusal`.  The solve is DOP853 at the
    tolerances of :mod:`.integrators`; a flow that fails (its step size
    underflows, or a stage leaves the finite range) raises
    :class:`QuadratureError`.
    """
    import numpy as np

    from .integrators import Dop853  # on first use, as in polar_laplace_integral

    chart = model.chart_dim
    n = len(directions)
    omega = tuple(np.array(column, dtype=float) for column in zip(*directions))

    def rhs(_s: float, y):
        coords = tuple(y.reshape(-1, n)[:chart])
        try:
            values = (*model.flow_field(omega, coords), model.phi(omega, coords),
                      model.laplacian_phi(omega, coords))
        except DomainError as exc:
            raise _MapRefusal(str(exc)) from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise DomainError(
                f"model {model.name!r} cannot evaluate its maps on coordinate arrays: {exc}"
            ) from None
        out = np.empty((len(values), n))
        for row, v in enumerate(values):
            out[row] = v
        return out.ravel()

    solve = Dop853(rhs, np.repeat([float(c) for c in x0] + [0.0, 0.0], n))

    def flow(span: float):
        # a flow that overflows is reported by the solver's failure below,
        # not by floating-point warnings
        with np.errstate(all="ignore"):
            solution = solve.until(span)
        if not solution.success:
            raise _FlowFailure(
                f"flow transport failed on {model.name}: {solution.message}",
                float("nan"),
                float("inf"),
            )
        return solution

    return flow


class _Undecayed(Exception):
    """A direction's integrand has not died off within the flow span."""


def _flow_oracle(
    model: HamiltonianModel,
    point: Sequence[Any] | None,
) -> Callable[..., float]:
    """``(k, tol, half_form, scale=1.0, kind=None) -> scale * j_a(k)`` at ``point``.

    The value is certified within ``tol``.  A quadrature refusal names
    the model, the density ``kind`` when given, and ``k``, and states
    the estimate and bound of ``scale * j_a(k)`` and ``tol``; a map's
    refusal along the flow is named the same way.

    Each angular level of the quadrature is one vectorized flow of its
    directions, read at all the radii of a Kronrod rule at once.  The
    span starts at 1 and doubles until, at the end of every level's
    flow, every direction's integrand has died off.  The oracle keeps
    one extendable solve per direction set, which every later span, k
    and half-form weight extends or branches off, since the flows depend
    on none of them.
    """
    dim = model.group_dim
    if dim > 3:
        # the polar quadrature has angular levels for dimensions 1 to 3 only
        raise DomainError(
            f"the numeric oracle needs group dimension <= 3; model {model.name!r} "
            f"has group dimension {dim}"
        )
    import numpy as np

    x0 = _reference_point(model, point)
    chart = model.chart_dim
    flows: dict[tuple, Callable[[float], Any]] = {}

    def level_at(k: float, weight: float, span: float):
        def level(nodes: np.ndarray):
            directions = tuple(tuple(row.tolist()) for row in nodes)
            n = len(directions)
            if directions not in flows:
                flows[directions] = _augmented_flow(model, directions, x0)
            solution = flows[directions](span)
            end = solution.end.reshape(-1, n)
            if np.any(2.0 * k * end[chart] - abs(weight) * np.abs(end[chart + 1])
                      < _PHASE_CUTOFF):
                raise _Undecayed

            def values(rho: np.ndarray):
                state = solution.sol(rho).reshape(len(rho), -1, n)
                return exp(-k * (2.0 * state[:, chart])) * exp(weight * state[:, chart + 1])

            return values

        return level

    def value(k: float, tol: float, half_form: Any, scale: float = 1.0,
              kind: str | None = None) -> float:
        if not k > 0:
            raise DomainError("k must be positive")
        weight = float(half_form)
        where = f"model {model.name!r}" + (f", density {kind}" if kind else "")
        span = 1.0
        while True:
            try:
                # as in _augmented_flow: no floating-point warnings reach stderr
                with np.errstate(all="ignore"):
                    level = level_at(k, weight, span)
                    return scale * polar_laplace_integral(level, dim, tol / scale, span).value
            except _Undecayed:
                span *= 2.0
                if span > _MAX_FLOW_SPAN:
                    raise DomainError(
                        f"phase fails to grow along the flow of model {model.name!r} "
                        f"at k = {k:g}; integrand does not decay"
                    ) from None
            except _MapRefusal as exc:
                raise DomainError(f"{where} at k = {k:g}: {exc}") from None
            except _FlowFailure:
                raise
            except QuadratureError as exc:
                raise QuadratureError(
                    f"{where} at k = {k:g}: {exc.reason}", scale * exc.estimate,
                    scale * exc.error_bound, None if exc.tol is None else tol,
                ) from None

    return value


def j_a_numeric(
    model: HamiltonianModel,
    point: Sequence[Any] | None,
    half_form: Any,
    k: float | Sequence[float],
    tol: float = 1e-10,
):
    """Core density by direct numerics, at one ``k`` or a list of them.

    The flow is transported with an adaptive ODE solver (dense output,
    carrying the phase and log-weight integrals as extra state) and the
    resulting radial integrand is handed to the numeric Laplace
    quadrature (:func:`polar_laplace_integral`), one
    vectorized flow per angular level; no series machinery is involved,
    which keeps this the independent oracle for the expansion path.
    The span is grown until the integrand has decayed below
    double-precision relevance in every direction.  A scalar ``k`` gives
    a float, a sequence a list in its order; the k values of one call
    share their flow solves, so a list costs one solve per level, not
    one per k: a longer span continues the level's solve, a shorter one
    branches off it, and neither repeats their shared steps.
    Group dimension above 3 is refused with
    :class:`~lapasym.errors.DomainError`; a quadrature that cannot
    certify ``tol`` raises :class:`~lapasym.errors.QuadratureError`
    naming the model and the k value, and a map that refuses a value
    along the flow is a :class:`~lapasym.errors.DomainError` naming them.
    """
    oracle = _flow_oracle(model, point)
    return _sweep(k, lambda kv: oracle(kv, tol, half_form))


def density(
    model: HamiltonianModel,
    kind: str | Sequence[str],
    k: float | Sequence[float] = 100.0,
    point: Sequence[Any] | None = None,
    tol: float = 1e-9,
):
    """Density ``kind`` by direct numerics, at one ``k`` or a list of them.

    ``"I"`` is the uncorrected density ``(k/2pi)^{d/2} vol^2 j_1(k)``,
    ``"J"`` the corrected one ``(k/pi)^{d/2} vol j_{1/2}(k)``.  A
    scalar ``k`` gives a float, a sequence a list in its order; as in
    :func:`j_a_numeric`, the k values of one call share their flow
    solves.  A sequence of kinds, such as ``("I", "J")``, gives a list
    with one such result per kind; the kinds share their flow solves
    too, since the flows do not depend on the half-form weight.  A
    quadrature that cannot certify ``tol`` raises
    :class:`~lapasym.errors.QuadratureError` naming the model, the kind
    and the k value, with the density's estimate and bound; a map's
    refusal along the flow names the same.
    """
    if isinstance(kind, str):
        return density(model, (kind,), k, point, tol)[0]
    data = [_density_data(model, one, point) for one in kind]
    oracle = _flow_oracle(model, point)
    d = model.group_dim
    results = []
    for name, (half_form, divisor, scale) in zip(kind, data):
        def one(kv: float) -> float:
            prefactor = (kv / divisor) ** (d / 2.0) * scale
            return oracle(kv, tol, half_form, prefactor, name)

        results.append(_sweep(k, one))
    return results


# ------------------------------------------------------------ Jacobian check

def _flow_endpoint(model: HamiltonianModel, start: Sequence[float], time: float):
    if time == 0.0:
        return tuple(float(c) for c in start), 0.0
    # the generator is linear in the direction, so flowing back for |time|
    # is flowing forward along the opposite direction, as one lane
    direction = (1,) if time > 0 else (-1,)
    try:
        solution = _augmented_flow(model, (direction,), tuple(start))(abs(time))
    except _MapRefusal as exc:
        raise DomainError(f"model {model.name!r}: {exc}") from None
    y = solution.end
    return tuple(y[: model.chart_dim]), float(y[model.chart_dim + 1])


def jacobian_tau_check(
    model: HamiltonianModel,
    xi: float,
    zero_parameter: float = 0.0,
) -> tuple[float, float]:
    """Transport Jacobian: product formula vs finite differences.

    The formula route multiplies the orbit volume by the exponential of
    the accumulated Laplacian along the flow; the finite-difference
    route takes central differences of the map (time, zero-level
    parameter) -> chart point and multiplies the 2x2 determinant by the
    chart volume density at the image.  Restricted to one-parameter
    groups on two-dimensional charts with |xi| <= 1, away from chart
    degeneracies.
    """
    if model.group_dim != 1 or model.chart_dim != 2:
        raise DomainError("Jacobian check needs a one-parameter group on a 2d chart")
    if model.zero_chart is None or model.chart_density is None:
        raise DomainError("Jacobian check needs zero_chart and chart_density data")
    if abs(xi) > 1.0:
        raise DomainError("|xi| <= 1 required (chart degenerates further out)")

    x0 = tuple(float(c) for c in model.zero_chart(zero_parameter))
    volume = float(model.orbit_volume(x0))
    image, log_weight = _flow_endpoint(model, x0, xi)
    formula = volume * math.exp(log_weight)

    def endpoint(s_param: float, time: float) -> tuple[float, ...]:
        start = tuple(float(c) for c in model.zero_chart(s_param))
        return _flow_endpoint(model, start, time)[0]

    step = _JACOBIAN_STEP
    plus_t = endpoint(zero_parameter, xi + step)
    minus_t = endpoint(zero_parameter, xi - step)
    plus_s = endpoint(zero_parameter + step, xi)
    minus_s = endpoint(zero_parameter - step, xi)
    col_time = [(a - b) / (2.0 * step) for a, b in zip(plus_t, minus_t)]
    col_s = [(a - b) / (2.0 * step) for a, b in zip(plus_s, minus_s)]
    determinant = col_time[0] * col_s[1] - col_time[1] * col_s[0]
    fd_value = abs(determinant) * float(model.chart_density(image))
    return formula, fd_value
