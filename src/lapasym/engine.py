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

The arithmetic is that of the profile's tables, which are sequences of
rows.  One row is computed on its plain numbers.  Several rows go
through one jet recurrence whose coefficients are the tables' columns,
built once per profile: float64 arrays when every entry of a table is a
float, else object arrays of the entries.  A float lane is the float the
direction would give on its own; an object array computes entry by entry
with Python's operators, so ints and Fractions stay exact up to each
direction's value.  Only the columns and the rules from dimension 2 on
load numpy.  The direction weights, the gamma factor, and the
fractional power of ``f0`` are evaluated in floating point, direction by
direction, in a fixed reduction order (compensated summation over
directions), so results are reproducible bit-for-bit across runs and
schedulings.  The numeric oracle that checks these coefficients is
:mod:`.oracle`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .errors import DomainError
from .jets import TruncatedSeries, listed

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

def gamma_value(q: Fraction | float) -> float:
    """Float ``Gamma(q)``, from exact factorials when ``q`` is a rational
    integer or half-integer.

    Integer ``q`` gives ``(q - 1)!``; ``q = m + 1/2`` gives ``(2m)! /
    (4**m m!) * sqrt(pi)``, the rational rounded once and then
    multiplied by ``sqrt(pi)``.  Such a ``q`` at or below zero is
    rejected; every other argument goes to :func:`math.gamma`, which
    rejects only the poles.
    """
    if isinstance(q, (Fraction, int)):
        q = Fraction(q)
        if q.denominator in (1, 2):
            if q <= 0:
                raise DomainError(f"gamma pole or nonpositive argument: {q}")
            if q.denominator == 1:
                return float(math.factorial(q.numerator - 1))
            m = (q.numerator - 1) // 2
            rational = Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))
            return float(rational) * math.sqrt(math.pi)
        q = float(q)
    if q <= 0 and q == int(q):
        raise DomainError(f"gamma pole at {q}")
    return math.gamma(q)


# ---------------------------------------------------------------- sphere rules

@dataclass(frozen=True, eq=False)
class SphereRule:
    """Quadrature nodes and weights on the unit sphere ``S**(dim-1)``.

    ``nodes`` is a sequence of ``n >= 1`` rows of ``dim`` coordinates
    and ``weights`` a sequence of ``n`` finite numbers, checked on their
    plain entries: tuples in dimension 1, float arrays (whose rows are
    arrays) from dimension 2 on.  Weights sum to the sphere area.  Every
    rule is deterministic and antipodally symmetric (the node set is
    closed under negation), which is what makes odd coefficients cancel
    to rounding.  ``mirrored`` is read off the nodes: ``n // 2`` when the
    second half of the nodes is, in order, the exact negation of the
    first half, else 0.  Radial data along a mirrored node follows from
    its partner's (see :class:`RadialProfile`).
    """

    dim: int
    nodes: Sequence[Sequence[Any]]
    weights: Sequence[Any]

    def __post_init__(self):
        nodes, weights = listed(self.nodes), listed(self.weights)
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
# resolution 32, 65,536 nodes, expands to order 6 in about 0.7 s on a
# 2-CPU x86-64 host, half of it in the tables' rows, their checks and
# their columns).  A larger rule, such as d = 6 at resolution 14
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
    ``-1`` is the mirror of ``1``; its weights are ``(1.0, 1.0)``.  From
    dim 2 on nodes and weights are float arrays, and numpy is loaded.
    dim 2 is the uniform trapezoid rule with ``resolution``
    angles, an even count (spectrally accurate, odd counts rejected).
    From dim 3 on the rule is a product (Stroud 1971): ``resolution``
    Gauss-Jacobi nodes for the polar cosine ``x``, with weight
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
    import numpy as np

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
    """Per-direction radial coefficients of phase and amplitude.

    ``phase_coefficients[i]`` lists ``f0, f1, ...`` for direction ``i``
    of the attached rule, ``amplitude_coefficients[i]`` lists
    ``g0, g1, ...``.  Leading phase coefficients must be positive.
    Each table is kept as a tuple of rows, each a tuple of the entries
    as they are, cut to the shortest row (an array's rows and entries
    become Python ones), so a profile of plain numbers needs no numpy.
    Where several rows are computed together, the engine turns each
    table into column arrays once (see :func:`_direction_values`).

    The tables hold one row per node of the rule, or one row per node
    but the rule's ``mirrored`` last ones.  A node left out holds its
    partner's rows with column ``p`` times ``(-1)**p``, which is what
    data odd in the direction gives along the negated direction (see
    :func:`~lapasym.models.geometric_expansion`); the engine takes its
    values from its partner's (see :func:`_direction_values`).  Full
    tables are taken as they are, whatever they hold.
    """

    def __init__(
        self,
        rule: SphereRule,
        phase_coefficients: Sequence[Sequence[Any]],
        amplitude_coefficients: Sequence[Sequence[Any]],
    ):
        rows, n = len(phase_coefficients), len(rule)
        if rows != len(amplitude_coefficients) or rows != n and rows != n - rule.mirrored:
            raise DomainError(
                f"coefficient tables have {rows} and {len(amplitude_coefficients)} rows; "
                f"a rule of {n} nodes, {rule.mirrored} of them mirrored, takes {n} or "
                f"{n - rule.mirrored}"
            )
        self.rule = rule
        self.phase_coefficients = phase = _table(phase_coefficients)
        self.amplitude_coefficients = _table(amplitude_coefficients)
        for i, row in enumerate(phase):
            lead = float(row[0]) if row else math.nan
            if not lead > 0.0:
                raise DomainError(
                    f"leading radial phase coefficient must be positive; direction {i}, "
                    f"{tuple(listed(rule.nodes[i]))}, has {lead!r}"
                )

    @property
    def order(self) -> int:
        return min(len(self.phase_coefficients[0]), len(self.amplitude_coefficients[0])) - 1

    @cached_property
    def columns(self) -> tuple:
        """The phase and amplitude tables as arrays of columns, for the lane
        recurrence: float64 when every entry of a table is a float, else an
        object array of the entries."""
        import numpy as np

        columns = []
        for table in (self.phase_coefficients, self.amplitude_coefficients):
            kinds = set(map(type, itertools.chain.from_iterable(table)))
            floats = all(issubclass(kind, float) for kind in kinds)
            columns.append(np.array(table, dtype=float if floats else object).T)
        return tuple(columns)


def _table(table: Sequence[Sequence[Any]]) -> tuple:
    rows = listed(table)
    width = min(map(len, rows))
    return tuple(tuple(row[:width]) for row in rows)


@dataclass(frozen=True)
class ExpansionResult:
    """Computed expansion coefficients with their decay exponents."""

    coefficients: tuple[float, ...]
    exponents: tuple[Fraction, ...]
    odd_vanished: tuple[bool, ...]

    def partial_sum(self, k: float) -> float:
        """Truncated asymptotic sum ``sum_j c_j k**(-e_j)`` at parameter ``k``."""
        if not k > 0:
            raise DomainError("asymptotic parameter k must be positive")
        return math.fsum(
            c * float(k) ** float(-e)
            for c, e in zip(self.coefficients, self.exponents)
        )


def _inner_bracket(j: int, exponent: Fraction, f: Sequence[Any], g: Sequence[Any]) -> Any:
    # [t**j] of g * (1 + u) ** (-exponent), u = (f - f0) / f0
    u = TruncatedSeries([0, *f[1:j + 1]], order=j) / f[0]
    return (TruncatedSeries(g[: j + 1]) * (1 + u) ** -exponent).coefficient(j)


def _exponent(j: int, profile: RadialProfile) -> Fraction:
    return Fraction(j + profile.rule.dim, 2)


def _direction_values(j: int, profile: RadialProfile) -> list[float]:
    """Per direction: ``f0 ** (-exponent)`` times the inner bracket, as a float.

    The bracket runs once, over the tables' rows: as one jet recurrence
    whose coefficients are the profile's :attr:`~RadialProfile.columns`,
    or, for a single row, on its plain numbers.  A node the tables leave
    out gets its partner's ``f0`` and its partner's bracket times
    ``(-1)**j``: its data is the partner's with ``t`` replaced by
    ``-t``, and the recurrence only adds and multiplies entries of
    matching parity, which Fraction arithmetic does exactly and IEEE
    rounding sign-symmetrically (but for the ``+0.0`` of an exact
    cancellation, a zero either way).
    """
    if j < 0:
        raise DomainError("coefficient index must be nonnegative")
    if j > profile.order:
        raise DomainError(
            f"profile provides radial data to order {profile.order}, need {j}"
        )
    exponent = _exponent(j, profile)
    phase, amplitude = profile.phase_coefficients, profile.amplitude_coefficients
    if len(phase) == 1:
        brackets = [_inner_bracket(j, exponent, list(phase[0]), list(amplitude[0]))]
    else:
        brackets = _inner_bracket(j, exponent, *profile.columns).tolist()
    # the left-out node n - m + i is the mirror of node i
    m = len(profile.rule) - len(phase)
    leads = [row[0] for row in phase]
    leads += leads[:m]
    brackets += [-b for b in brackets[:m]] if j % 2 else brackets[:m]
    # then the power of f0 lane by lane: exact while both stay exact, else
    # in floats
    integral = exponent.denominator == 1
    power = float(-exponent)
    return [
        float(b * f0 ** -exponent.numerator) if integral and not isinstance(f0, float)
        else float(b) * float(f0) ** power
        for b, f0 in zip(brackets, leads)
    ]


def expansion_coefficient(j: int, profile: RadialProfile) -> float:
    """Coefficient of ``k ** (-(j + d) / 2)``, ``d`` the rule's dimension.

    Per direction: ``f0 ** (-(j + d) / 2)`` times the ``t**j``
    coefficient of the amplitude series times the power of the phase
    perturbation, then the quadrature average and the gamma prefactor
    ``Gamma((j + d) / 2) / 2``.  The arithmetic is that of the tables,
    one jet recurrence over their columns for every direction: object
    arrays of ints and Fractions are computed exactly up to the
    per-direction value, float64 arrays in floats.
    """
    values = _direction_values(j, profile)
    return gamma_value(_exponent(j, profile)) / 2 * math.fsum(
        w * v for w, v in zip(listed(profile.rule.weights), values)
    )


def expansion_series(profile: RadialProfile, order: int) -> ExpansionResult:
    """All coefficients ``0..order`` plus vanished-odd flags.

    Each coefficient is computed as in :func:`expansion_coefficient`, in
    the arithmetic of the profile's tables.  Odd-index coefficients of
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
