"""Generic asymptotic expansion engine for Laplace-type integrals.

The engine computes the coefficients of the large-parameter expansion

    integral over a ball in R**d of  exp(-k * phase) * amplitude
        ~  sum_j  c_j * k ** (-(j + d) / 2)

from radial data on the unit sphere: for each direction the phase is
``rho ** 2 * (f0 + f1 rho + ...)`` with ``f0 > 0`` (a nondegenerate
quadratic minimum) and the amplitude is ``g0 + g1 rho + ...``; ``d`` is
the dimension of the profile's sphere rule.  Coefficient ``j`` is the
``t**j`` coefficient of the jet product ``g * (1 + u) ** (-(j + d) /
2)`` with ``u = (f - f0) / f0`` in each direction, the rational power
taken by the series recurrence of :mod:`.jets`, integrated with the
deterministic, antipodally symmetric product rule of
:func:`sphere_rule`, which serves every dimension.

The arithmetic is that of the profile's columns, one per coefficient
(see :class:`RadialProfile`): each coefficient runs one jet recurrence
for every direction at once, on the columns as they are.  A number
computes on its own; a :class:`~lapasym.vector.Vector` or a float array
lane by lane, each lane the float the direction would give on its own;
an object array entry by entry with Python's operators, so ints and
Fractions stay exact up to each direction's value.  Only arrays and the
rules from dimension 3 on load numpy: the circle rule of dimension 2 is
built with :mod:`math`.  The direction weights, the gamma factor, and the
fractional power of ``f0`` are evaluated in floating point, direction by
direction, in a fixed reduction order (compensated summation over
directions), so results are reproducible bit-for-bit across runs and
schedulings.  The numeric oracle that checks these coefficients is
:mod:`.oracle`.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .errors import DomainError
from .jets import TruncatedSeries, is_vector, listed, numpy_if_array

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "gamma_value",
    "SphereRule",
    "sphere_rule",
    "sphere_area",
    "RadialProfile",
    "ExpansionResult",
    "expansion_coefficient",
    "expansion_series",
]


# ---------------------------------------------------------------- gamma

def gamma_value(q: Fraction | int) -> float:
    """Float ``Gamma(q)`` of a positive integer or half-integer ``q``,
    given as an int or a Fraction, from exact factorials.

    Integer ``q`` gives ``(q - 1)!``; ``q = m + 1/2`` gives ``(2m)! /
    (4**m m!) * sqrt(pi)``, the rational rounded once and then
    multiplied by ``sqrt(pi)``.  Any other argument (a float, another
    rational, or a ``q`` at or below zero) is a
    :class:`~lapasym.errors.DomainError`.
    """
    if not isinstance(q, (Fraction, int)) or Fraction(q).denominator not in (1, 2) or q <= 0:
        raise DomainError(f"gamma_value needs a positive integer or half-integer, not {q!r}")
    q = Fraction(q)
    if q.denominator == 1:
        return float(math.factorial(q.numerator - 1))
    m = (q.numerator - 1) // 2
    rational = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
    return float(rational) * math.sqrt(math.pi)


# ---------------------------------------------------------------- records

class Record:
    """Named fields, fixed when the record is made and compared by value.

    A subclass lists its ``_fields`` and sets them in ``__init__`` with
    :meth:`_fix`; assigning or deleting an attribute afterwards raises
    :class:`AttributeError`.  (Plain classes, so that no start pays for
    importing :mod:`dataclasses` and the modules it loads.)
    """

    _fields: tuple[str, ...] = ()

    def _fix(self, values: dict) -> None:
        # the fields from values, such as __init__'s locals()
        vars(self).update((name, values[name]) for name in self._fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------- sphere rules

class SphereRule(Record):
    """Quadrature nodes and weights on the unit sphere ``S**(dim-1)``.

    ``nodes`` is a sequence of ``n >= 1`` rows of ``dim`` coordinates
    and ``weights`` a sequence of ``n`` finite numbers, checked on their
    plain entries: tuples in dimensions 1 and 2, float arrays (whose rows
    are arrays) from dimension 3 on.  Weights sum to the sphere area.  Every
    rule is deterministic and antipodally symmetric (the node set is
    closed under negation), which is what makes odd coefficients cancel
    to rounding.  ``mirrored`` is read off the nodes: ``n // 2`` when the
    second half of the nodes is, in order, the exact negation of the
    first half, else 0.  Radial data along a mirrored node follows from
    its partner's (see :class:`RadialProfile`).  Two rules are equal
    only if they are the same object.
    """

    _fields = ("dim", "nodes", "weights")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, dim: int, nodes: Sequence[Sequence[Any]], weights: Sequence[Any]):
        self._fix(locals())
        nodes, weights = listed(nodes), listed(weights)
        try:
            shaped = len(nodes) == len(weights) and set(map(len, nodes)) <= {self.dim}
            finite = list(map(math.isfinite, weights))
        except TypeError:  # a number where a sequence belongs, or the reverse
            shaped = False
        if not shaped:
            raise DomainError(f"a rule on S**{self.dim - 1} needs an (n, {self.dim}) node "
                              "array and n weights")
        if not nodes:
            raise DomainError(f"a rule on S**{self.dim - 1} needs at least one node, not "
                              f"{len(nodes)} nodes and {len(weights)} weights")
        if not all(finite):
            i = finite.index(False)
            raise DomainError(f"rule weights must be finite; weight {i} is {float(weights[i])}")

    def __len__(self) -> int:
        return len(self.weights)

    @cached_property
    def mirrored(self) -> int:
        half = len(self) // 2
        second = self.nodes[len(self) - half:]
        pairs = all(b == -a for first, last in zip(self.nodes[:half], second)
                    for a, b in zip(first, last))
        return half if pairs else 0


def sphere_area(dim: int) -> float:
    """Surface area of ``S**(dim-1)``; the 0-sphere carries counting measure 2."""
    return 2.0 * math.pi ** (dim / 2.0) / gamma_value(Fraction(dim, 2))


# the largest rule sphere_rule builds.  Its nodes and weights take
# 8 * (dim + 1) bytes each, and the series path carries every node through
# one jet transport as float64 lanes, so a coefficient costs a few dozen
# bytes and about a microsecond per node (the flat 4-d model at
# resolution 32, 65,536 nodes, expands to order 6 in about 0.3 s on a
# 2-CPU x86-64 host).  A larger rule, such as d = 6 at resolution 14
# (1,075,648 nodes), is refused before anything is allocated; the d <= 3
# rules in use stay far below (d = 3 at resolution 40 has 3200).
_MAX_RULE_NODES = 1 << 20


def _polar_rule(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    # n-point Gauss-Jacobi rule for the weight (1 - x**2) ** ((dim - 3) / 2),
    # the polar cosine's share of the area of S**(dim-1)
    import numpy as np

    if dim == 3:
        return np.polynomial.legendre.leggauss(n)
    # Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    # matrix, the weights the squared first eigenvector components
    a = (dim - 3) / 2.0
    i = np.arange(1.0, n)
    off = np.sqrt(i * (i + 2.0 * a) / ((2.0 * i + 2.0 * a + 1.0) * (2.0 * i + 2.0 * a - 1.0)))
    x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = sphere_area(dim) / sphere_area(dim - 1) * vectors[0] ** 2
    # symmetrize, as leggauss does, so the rule is exactly antipodal
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def sphere_rule(dim: int, resolution: int = 32) -> SphereRule:
    """Antipodally symmetric quadrature on ``S**(dim-1)``.

    dim 1 is the two-point set {+1, -1} with unit weights (resolution is
    ignored), as plain tuples: its nodes are the integers ``((1,),
    (-1,))``, so that exact radial data stays exact along them, and
    ``-1`` is the mirror of ``1``; its weights are ``(1.0, 1.0)``.
    dim 2 is the uniform trapezoid rule with ``resolution`` angles, an
    even count (spectrally accurate, odd counts rejected), as tuples of
    floats built with :mod:`math`: angle ``i`` is ``2.0 * math.pi * i /
    resolution``, its node ``(cos, sin)`` of it and every weight ``1.0 *
    2.0 * math.pi / resolution``, the floats that numpy's vectorized
    expressions for the same rule give.  From dim 3 on nodes and
    weights are float arrays, and numpy is loaded.  The rule is then a
    product (Stroud 1971): ``resolution`` Gauss-Jacobi nodes for the
    polar cosine ``x``, with weight
    ``(1 - x**2) ** ((dim - 3) / 2)`` from Golub-Welsch (Legendre for
    dim 3), times the ``dim - 1`` rule at the same resolution scaled by
    ``sqrt(1 - x**2)``.  The recursion ends in a circle of
    ``2 * resolution`` angles, so the rule has ``2 * resolution **
    (dim - 1)`` nodes; one with more than ``_MAX_RULE_NODES`` is refused.
    From dim 2 on no node is mirrored: the nodes come in no exact ``+-``
    pairs in that order (their antipodes agree to rounding only).
    """
    if dim < 1:
        raise DomainError("sphere dimension must be >= 1")
    if dim == 1:
        return SphereRule(1, ((1,), (-1,)), (1.0, 1.0))
    if dim == 2:
        if resolution < 4 or resolution % 2:
            raise DomainError(
                "circle rule needs an even node count >= 4 for antipodal symmetry"
            )
        m = resolution
    else:
        if resolution < 2:
            raise DomainError("polar resolution must be >= 2")
        m = 2 * resolution
    count = m * resolution ** (dim - 2)
    if count > _MAX_RULE_NODES:
        raise DomainError(
            f"the sphere rule for d = {dim} at resolution {resolution} "
            f"has {count} nodes, more than the {_MAX_RULE_NODES} allowed"
        )
    if dim == 2:
        # numpy's expressions below, one angle at a time; math's cosine and
        # sine give numpy's nodes
        angles = [2.0 * math.pi * i / m for i in range(m)]
        return SphereRule(2, tuple((math.cos(t), math.sin(t)) for t in angles),
                          (1.0 * 2.0 * math.pi / m,) * m)
    import numpy as np

    theta = 2.0 * math.pi * np.arange(m) / m
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # products of the polar weights; the circle's 2 pi / m comes last, in
    # the order of the Legendre times azimuth rule
    weights = np.ones(m)
    for level in range(3, dim + 1):
        x, w = _polar_rule(resolution, level)
        scaled = np.sqrt(1.0 - x ** 2)[:, None, None] * nodes
        nodes = np.concatenate([
            scaled.reshape(-1, level - 1),
            np.repeat(x, len(weights))[:, None],
        ], axis=1)
        weights = np.outer(w, weights).ravel()
    return SphereRule(dim, nodes, weights * 2.0 * math.pi / m)


# ---------------------------------------------------------------- radial data

# odd coefficients below this share of the largest one count as vanished
_ODD_TOLERANCE = 1e-12


class RadialProfile:
    """Radial coefficients of phase and amplitude, as columns.

    ``phase[p]`` is ``f_p`` and ``amplitude[p]`` is ``g_p``, of the phase
    ``rho ** 2 * (f0 + f1 rho + ...)`` and the amplitude ``g0 + g1 rho +
    ...`` along the directions of the attached rule.  A column is a
    number that every direction shares, or a 1-d array or a
    :class:`~lapasym.vector.Vector` with one entry per direction; the
    engine computes on it as it is (see :mod:`.jets`), so numbers and
    vectors need no numpy.  The order is that of the shorter table.

    The arrays and vectors hold one entry per node of the rule, or one
    per node but the rule's ``mirrored`` last ones, as numbers do where
    no column is an array or a vector.  A node left out holds its
    partner's data with column ``p`` times ``(-1)**p``, which is what
    data odd in the direction gives along the negated direction (see
    :func:`~lapasym.models.geometric_expansion`); the engine takes its
    values from its partner's (see :func:`_direction_values`).  Full
    columns are taken as they are, whatever they hold.  An entry with no
    finite float, or a leading phase coefficient that is not positive,
    is a :class:`~lapasym.errors.DomainError` naming the first column or
    direction that has one.
    """

    def __init__(self, rule: SphereRule, phase: Sequence[Any], amplitude: Sequence[Any]):
        self.rule = rule
        self.phase, self.amplitude = phase, amplitude = tuple(phase), tuple(amplitude)
        n, kept = len(rule), len(rule) - rule.mirrored
        shapes = {_shape(column) for column in (*phase, *amplitude)} - {None}
        if len(shapes) > 1 or not shapes <= {(n,), (kept,)}:
            raise DomainError(
                f"coefficient columns of shapes {sorted(shapes)}; a rule of {n} nodes, "
                f"{rule.mirrored} of them mirrored, takes {n} or {kept} entries per column"
            )
        # the number of directions the columns hold
        self.lanes = shapes.pop()[0] if shapes else kept
        for name, table in (("phase", phase), ("amplitude", amplitude)):
            for p, column in enumerate(table):
                if not _finite(column):
                    raise DomainError(f"{name} coefficient {p} has no finite float value")
        for i, lead in enumerate(_lanes(phase[0] if phase else math.nan, 1)):
            if not float(lead) > 0.0:
                raise DomainError(
                    f"leading radial phase coefficient must be positive; direction {i}, "
                    f"{tuple(listed(rule.nodes[i]))}, has {float(lead)!r}"
                )

    @property
    def order(self) -> int:
        return min(len(self.phase), len(self.amplitude)) - 1


def _shape(column: Any) -> tuple | None:
    # an array's shape, a vector's one axis, None for a number
    if numpy_if_array(column) is not None:
        return column.shape
    return (len(column),) if is_vector(column) else None


def _finite(column: Any) -> bool:
    # every entry has a finite float: inf, nan and numbers too large for a
    # float have none
    np = numpy_if_array(column)
    try:
        if np is not None:
            return bool(np.isfinite(np.asarray(column, dtype=float)).all())
        if is_vector(column):
            return all(map(math.isfinite, column))
        return math.isfinite(column)
    except OverflowError:
        return False


def _lanes(value: Any, count: int) -> list:
    # an array's or a vector's entries, or count copies of a number
    if numpy_if_array(value) is not None:
        return value.tolist()
    return list(value) if is_vector(value) else [value] * count


class ExpansionResult(Record):
    """Computed expansion coefficients with their decay exponents."""

    _fields = ("coefficients", "exponents", "odd_vanished")

    def __init__(self, coefficients: tuple[float, ...], exponents: tuple[Fraction, ...],
                 odd_vanished: tuple[bool, ...]):
        self._fix(locals())

    def partial_sum(self, k: float) -> float:
        """Truncated asymptotic sum ``sum_j c_j k**(-e_j)`` at parameter ``k``."""
        if not k > 0:
            raise DomainError("asymptotic parameter k must be positive")
        return math.fsum(
            c * float(k) ** float(-e)
            for c, e in zip(self.coefficients, self.exponents)
        )


def _inner_bracket(j: int, exponent: Fraction, f: Sequence[Any], g: Sequence[Any]) -> Any:
    # [t**j] of g * (1 + u) ** (-exponent), u = (f - f0) / f0: the one sum
    # of the product's t**j term, in the order the product sums it
    u = TruncatedSeries([0, *f[1:j + 1]], order=j) / f[0]
    power = ((1 + u) ** -exponent).coefficients
    acc = g[0] * power[j]
    for i in range(1, j + 1):
        acc = acc + g[i] * power[j - i]
    return acc


def _exponent(j: int, profile: RadialProfile) -> Fraction:
    return Fraction(j + profile.rule.dim, 2)


def _direction_values(j: int, profile: RadialProfile) -> list[float]:
    """Per direction: ``f0 ** (-exponent)`` times the inner bracket, as a float.

    The bracket runs once, as one jet recurrence whose coefficients are
    the profile's columns; a number gives one value that every direction
    the columns hold shares.  A node the columns leave out gets its
    partner's ``f0`` and its partner's bracket times ``(-1)**j``: its
    data is the partner's with ``t`` replaced by ``-t``, and the
    recurrence only adds and multiplies entries of matching parity,
    which Fraction arithmetic does exactly and IEEE rounding
    sign-symmetrically (but for the ``+0.0`` of an exact cancellation, a
    zero either way).
    """
    exponent = _exponent(j, profile)
    phase, lanes = profile.phase, profile.lanes
    brackets = _lanes(_inner_bracket(j, exponent, phase, profile.amplitude), lanes)
    leads = _lanes(phase[0], lanes)
    # the left-out node n - m + i is the mirror of node i
    m = len(profile.rule) - lanes
    leads += leads[:m]
    brackets += [-b for b in brackets[:m]] if j % 2 else brackets[:m]
    # then the power of f0 lane by lane: an integer power of exact entries
    # exactly, else in floats
    if exponent.denominator == 1:
        return [float(b * f0 ** -exponent.numerator) for b, f0 in zip(brackets, leads)]
    power = float(-exponent)
    return [float(b) * float(f0) ** power for b, f0 in zip(brackets, leads)]


def expansion_coefficient(j: int, profile: RadialProfile) -> float:
    """Coefficient of ``k ** (-(j + d) / 2)``, ``d`` the rule's dimension.

    Per direction: ``f0 ** (-(j + d) / 2)`` times the ``t**j``
    coefficient of the amplitude series times the power of the phase
    perturbation, then the quadrature average and the gamma prefactor
    ``Gamma((j + d) / 2) / 2``.  The arithmetic is that of the columns,
    one jet recurrence over them for every direction: ints and Fractions
    are computed exactly up to the per-direction value, floats in
    floats.  A coefficient that comes out inf or nan, or leaves the
    float range on the way, is a :class:`~lapasym.errors.DomainError`.
    """
    if j < 0:
        raise DomainError("coefficient index must be nonnegative")
    if j > profile.order:
        raise DomainError(
            f"profile provides radial data to order {profile.order}, need {j}"
        )
    try:
        terms = [w * v for w, v in zip(listed(profile.rule.weights),
                                       _direction_values(j, profile))]
        total = math.fsum(terms) if all(map(math.isfinite, terms)) else math.nan
    except OverflowError:  # a direction's value or the sum past the float range
        total = math.inf
    value = gamma_value(_exponent(j, profile)) / 2 * total
    if not math.isfinite(value):
        raise DomainError(f"coefficient {j} is {value}, not a finite float")
    return value


def expansion_series(profile: RadialProfile, order: int) -> ExpansionResult:
    """All coefficients ``0..order`` plus vanished-odd flags.

    Each coefficient is computed as in :func:`expansion_coefficient`, in
    the arithmetic of the profile's columns.  Odd-index coefficients of
    antipodally equivariant data cancel within the symmetric rule; they
    are flagged (not dropped) when smaller than ``1e-12`` times the
    largest coefficient.
    """
    if order < 0:
        raise DomainError("expansion order must be nonnegative")
    coeffs = [expansion_coefficient(j, profile) for j in range(order + 1)]
    scale = max((abs(c) for c in coeffs), default=0.0) or 1.0
    flags = [bool(j % 2 and abs(c) <= _ODD_TOLERANCE * scale) for j, c in enumerate(coeffs)]
    exponents = tuple(_exponent(j, profile) for j in range(order + 1))
    return ExpansionResult(tuple(coeffs), exponents, tuple(flags))
