"""Truncated univariate power series (jets) and jet transport along flows.

A :class:`TruncatedSeries` stores coefficients ``c[0..N]`` of a power
series truncated at a fixed order ``N``.  Coefficients can be exact
rationals, floats, float64 or object arrays (one lane per direction,
so one jet carries a whole batch of directions), or again truncated
series (nested jets), as long as they support ring arithmetic; all algorithms here
only ever add, multiply, and rescale coefficients, so exact inputs give
exact outputs.  One transport serves every group dimension: a batch of
float directions travels as :class:`Lanes` (defined in :mod:`.lanes`,
which loads numpy when ``jets.Lanes`` is first read), and group
dimension 1 transports its one direction ``1`` as plain numbers (the
engine folds ``-1`` from it, see :class:`~lapasym.engine.RadialProfile`),
so exact data stays exact and numpy is never loaded.

Conventions shared by the whole package:

* addition and subtraction require operands of matching order (a
  mismatch raises :class:`~lapasym.errors.OrderMismatchError`, it is
  never resized implicitly); multiplication truncates to the smaller
  order; scalars combine freely with any order,
* a division by an integer rescales by the exact rational ``1/n``, so
  Fraction-valued series never leave the rational field; float and
  numeric array coefficients take the float ``1/n``, which is the float
  that rational rounds to when it meets a float, so the result is the
  same; object arrays keep the rational, entry by entry,
* an array coefficient computes as its lanes would one by one: the
  lead of a series function (``exp``, ``log``, ``sin``, ``cos``,
  ``sqrt`` and rational powers) applies the scalar function to each
  entry, through :mod:`math`, whose rounding differs from numpy's
  vectorized functions in some elements, and keeps the array's dtype
  and class, so an exact table's rational powers stay exact; a
  :class:`Lanes` array meets a Fraction as the Fraction's float, as a
  float would.

On top of the arithmetic sit the series versions of the elementary
functions (:func:`exp_series`, ``sin``/``cos``/``sqrt``/``log``, and
rational powers through ``**``), all computed by O(N**2) coefficient
recurrences; and the Taylor method along an ODE flow
(:func:`ode_jet_transport`, which returns the tuple of the coordinates'
jets).  A quantity that builds up along a flow, such as the integral of
a scalar map of the flow's point, rides along as one more coordinate,
whose field component is that map.

Every coefficient is computed once, the first time it is asked for.  A
series made from a list knows its coefficients; one that an operation
returns knows only its rule: coefficient ``p`` of a sum, a product, a
power or an elementary function is computed from coefficients ``0..p``
of its operands (a transported coordinate's from coefficient ``p - 1``
of its field component), by the recurrence above, term by term in a
fixed order, and kept.  So the value of a coefficient does not depend
on when or in what order coefficients are asked for, only its cost
does: a whole expression costs what its operations' recurrences cost
once, and asking for one coefficient computes no later one.  The flow
of :func:`ode_jet_transport` rests on this: its coordinates are defined
through the field's value on themselves.  A series drops its operands
once its last coefficient is known; an expression stays alive until
then.

A series remembers its nonnegative integer powers: ``b ** e`` keeps the
repeated squares ``b**2, b**4, ...`` and every power it builds on ``b``,
so the terms of a polynomial in one jet (the components of a
transport's field, such as a flow field, ``phi`` and the Laplacian at
the same point) share them.
Each power is formed as binary powering forms it, ``b ** (e - 2**top)``
times ``b ** (2**top)`` down to ``1 * b ** (2**i)`` for the lowest set
bit, the same products in the same order, so the result is bit for bit
that of a fresh call, in every ring; the product with ``1`` stays,
because ``1 * x + 0 * y`` is not ``x`` at ``-0.0``, ``inf`` or ``nan``.

The module-level :func:`exp`, :func:`sin`, :func:`cos`, :func:`sqrt`,
:func:`log` dispatch on the argument type (series, numpy array or
scalar), which lets model callables be written once as ordinary
compositions and evaluated on points, on arrays of points (elementwise,
through numpy; an object array as floats) and on jets alike.  An array
is recognised by :func:`numpy_if_array`, which never imports numpy, so
scalars and jets of plain numbers compute without it.  A square root of
a negative value or a logarithm of a nonpositive one is a
:class:`~lapasym.errors.DomainError`, on scalars and arrays alike.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import DomainError, JetEvaluationError, OrderMismatchError

__all__ = [
    "TruncatedSeries",
    "Lanes",
    "exp_series",
    "ode_jet_transport",
    "exp",
    "sin",
    "cos",
    "sqrt",
    "log",
]


class TruncatedSeries:
    """Power series truncated at a fixed order.

    Parameters
    ----------
    coefficients : sequence
        Coefficients ``c[0], c[1], ...`` in ascending powers.
    order : int, optional
        Pad (with integer zeros) or reject to this order.  Default is
        ``len(coefficients) - 1``.

    Arithmetic and the series functions return series that compute
    coefficient ``p`` the first time it is asked for, from coefficients
    ``0..p`` of their operands, and keep it.
    """

    # _rule(p) computes coefficient p once coefficients 0..p-1 are known;
    # None once every coefficient is (a series built from a list, or a
    # finished one, which so drops its operands).  _powers, set by the
    # first integer power: the repeated squares b**2, b**4, ... and every
    # nonnegative power built so far (see __pow__)
    __slots__ = ("_coeffs", "_order", "_rule", "_powers")
    # ndarray <op> series defers to the series instead of building an
    # object array of series
    __array_ufunc__ = None

    def __init__(self, coefficients: Sequence[Any], order: int | None = None):
        coeffs = list(coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        if order is not None:
            if order + 1 < len(coeffs):
                raise ValueError(
                    f"{len(coeffs)} coefficients exceed requested order {order}"
                )
            coeffs.extend([0] * (order + 1 - len(coeffs)))
        self._coeffs = coeffs
        self._order = len(coeffs) - 1
        self._rule = None

    @classmethod
    def _lazy(cls, order: int, rule: Callable[[int], Any],
              known: list | None = None) -> "TruncatedSeries":
        # a series of this order whose coefficients past the known ones
        # (that very list, which the series extends) come from rule
        series = cls.__new__(cls)
        series._coeffs = [] if known is None else known
        series._order = order
        series._rule = rule
        return series

    def _known(self, p: int) -> list:
        """The coefficient list, computed through ``t**min(p, order)``."""
        coeffs = self._coeffs
        if len(coeffs) <= p and self._rule is not None:
            for q in range(len(coeffs), min(p, self._order) + 1):
                coeffs.append(self._rule(q))
            if len(coeffs) > self._order:
                self._rule = None
        return coeffs

    # ------------------------------------------------------------ basics

    @classmethod
    def constant(cls, value: Any, order: int) -> "TruncatedSeries":
        """The constant jet ``value + 0*t + ... + 0*t**order``."""
        return cls([value], order=order)

    @classmethod
    def variable(cls, value: Any, order: int) -> "TruncatedSeries":
        """The coordinate jet ``value + t`` truncated at ``order`` (>= 1)."""
        if order < 1:
            raise ValueError("a coordinate jet needs order >= 1")
        return cls([value, 1], order=order)

    @property
    def order(self) -> int:
        return self._order

    @property
    def coefficients(self) -> tuple:
        return tuple(self._known(self._order))

    def coefficient(self, p: int) -> Any:
        """Coefficient of ``t**p`` (0 beyond the truncation order)."""
        if p < 0:
            raise ValueError("negative power")
        return self._known(p)[p] if p <= self._order else 0

    # ------------------------------------------------------------ arithmetic

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: Any) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return TruncatedSeries._lazy(
                self._order, lambda p: self._known(p)[p] + other._known(p)[p])
        return TruncatedSeries._lazy(
            self._order, lambda p: self._known(p)[p] + other if p == 0 else self._known(p)[p])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._lazy(self._order, lambda p: -self._known(p)[p])

    def __sub__(self, other: Any) -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -1 * other)

    def __rsub__(self, other: Any) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other: Any) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            def product(p: int) -> Any:
                a, b = self._known(p), other._known(p)
                acc = a[0] * b[p]
                for i in range(1, p + 1):
                    acc = acc + a[i] * b[p - i]
                return acc

            return TruncatedSeries._lazy(min(self._order, other._order), product)
        return TruncatedSeries._lazy(self._order, lambda p: self._known(p)[p] * other)

    def __rmul__(self, other: Any) -> "TruncatedSeries":
        return TruncatedSeries._lazy(self._order, lambda p: other * self._known(p)[p])

    def __truediv__(self, other: Any) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return self * _reciprocal(other)
        return self * _invert_scalar(other)

    def __rtruediv__(self, other: Any) -> "TruncatedSeries":
        return _reciprocal(self) * other

    def __pow__(self, exponent: int | Fraction) -> "TruncatedSeries":
        if isinstance(exponent, Fraction):
            if exponent.denominator != 1:
                return _rational_power(self, exponent)
            exponent = exponent.numerator
        if not isinstance(exponent, int):
            raise TypeError("series powers take integer or Fraction exponents")
        if exponent < 0:
            return _reciprocal(self) ** (-exponent)
        try:
            squares, powers = self._powers
        except AttributeError:
            squares, powers = self._powers = [], {0: TruncatedSeries.constant(1, self.order)}
        power = powers.get(exponent)
        if power is None:
            # binary powering multiplies in the squares of the set bits from
            # the lowest up, so b**e is b**(e - 2**top) times b**(2**top)
            top = exponent.bit_length() - 1
            while len(squares) < top:
                last = squares[-1] if squares else self
                squares.append(last * last)
            power = self ** (exponent - (1 << top)) * (squares[top - 1] if top else self)
            powers[exponent] = power
        return power

    # ------------------------------------------------------------ misc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.coefficients == other.coefficients
        return NotImplemented

    __hash__ = None  # mutable-adjacent semantics; not intended as dict keys

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coefficients)!r})"


# ---------------------------------------------------------------- scalars

def _is_exact(value: Any) -> bool:
    return isinstance(value, (int, Fraction))


def __getattr__(name: str) -> Any:
    # Lanes subclasses numpy's array, so it is built, and numpy loaded, on
    # first use
    if name == "Lanes":
        from .lanes import Lanes

        return Lanes
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def numpy_if_array(value: Any, scalars: bool = False) -> Any:
    """numpy if ``value`` is a numpy array (with ``scalars``, also a numpy
    scalar), else None.

    It reads numpy from :data:`sys.modules` and never imports it: no
    numpy value exists before numpy is loaded.
    """
    np = sys.modules.get("numpy")
    if np is None:
        return None
    kinds = (np.ndarray, np.generic) if scalars else np.ndarray
    return np if isinstance(value, kinds) else None


def listed(values: Sequence[Any]) -> Sequence[Any]:
    """An array's entries (or rows) as Python numbers, through
    ``tolist``; any other sequence as it is."""
    return values.tolist() if numpy_if_array(values) is not None else values


def _is_float_ring(value: Any) -> bool:
    # floats and numeric arrays; an object array computes entry by entry
    # with Python's operators, so exact entries stay exact
    if numpy_if_array(value) is not None:
        return value.dtype != object
    return isinstance(value, float)


def _in_ring(rational: Fraction, like: Any) -> Any:
    # the rational that multiplies like: a Fraction meets a float as the
    # Fraction's float, so float rings take that float at once
    return float(rational) if _is_float_ring(like) else rational


def _lead(fn: Callable[[Any], Any], value: Any) -> Any:
    # the scalar fn of a constant term; an array goes entry by entry and
    # keeps its class, an object array its dtype (numeric ones give floats)
    np = numpy_if_array(value)
    if np is not None:
        entries = [fn(v) for v in value.ravel().tolist()]
        dtype = np.result_type(value.dtype, float)
        return np.array(entries, dtype=dtype).reshape(value.shape).view(type(value))
    return fn(value)


def _invert_scalar(value: Any) -> Any:
    if isinstance(value, TruncatedSeries):
        return _reciprocal(value)
    if numpy_if_array(value) is not None:
        if not value.all():
            raise DomainError("singular jet: division by a zero value")
        return (1.0 if _is_float_ring(value) else Fraction(1)) / value
    if value == 0:
        # a quotient, reciprocal, square root or logarithm that is singular here
        raise DomainError("singular jet: division by a zero value")
    if _is_exact(value):
        return Fraction(1, 1) / value
    return 1.0 / value


def _floats(value: Any) -> Any:
    # exact constants times a float array give an object array of floats
    return value.astype(float) if value.dtype == object else value


def exp(value: Any) -> Any:
    """Exponential of a scalar, an array (elementwise) or a truncated series."""
    if isinstance(value, TruncatedSeries):
        return exp_series(value)
    np = numpy_if_array(value)
    if np is not None:
        return np.exp(_floats(value))
    if _is_exact(value) and value == 0:
        return 1
    return math.exp(value)


def sin(value: Any) -> Any:
    if isinstance(value, TruncatedSeries):
        return _sin_cos_series(value)[0]
    np = numpy_if_array(value)
    if np is not None:
        return np.sin(_floats(value))
    if _is_exact(value) and value == 0:
        return value
    return math.sin(value)


def cos(value: Any) -> Any:
    if isinstance(value, TruncatedSeries):
        return _sin_cos_series(value)[1]
    np = numpy_if_array(value)
    if np is not None:
        return np.cos(_floats(value))
    if _is_exact(value) and value == 0:
        return 1
    return math.cos(value)


def sqrt(value: Any) -> Any:
    """Square root; exact on perfect squares of ints and rationals."""
    if isinstance(value, TruncatedSeries):
        return _sqrt_series(value)
    np = numpy_if_array(value)
    if np is not None:
        if np.any(value < 0):
            raise DomainError("square root of a negative value")
        return np.sqrt(_floats(value))
    if value < 0:
        raise DomainError("square root of a negative value")
    if isinstance(value, int):
        r = math.isqrt(value)
        if r * r == value:
            return r
    if isinstance(value, Fraction):
        rn, rd = math.isqrt(value.numerator), math.isqrt(value.denominator)
        if rn * rn == value.numerator and rd * rd == value.denominator:
            return Fraction(rn, rd)
    return math.sqrt(value)


def log(value: Any) -> Any:
    if isinstance(value, TruncatedSeries):
        return _log_series(value)
    np = numpy_if_array(value)
    if np is not None:
        if np.any(value <= 0):
            raise DomainError("logarithm of a nonpositive value")
        return np.log(_floats(value))
    if value <= 0:
        raise DomainError("logarithm of a nonpositive value")
    if _is_exact(value) and value == 1:
        return 0
    return math.log(value)


# ---------------------------------------------------------------- series maps

def exp_series(h: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a truncated series.

    Solves ``u' = h' u`` by the triangular coefficient recursion and
    multiplies by ``exp(h(0))``; with an exact zero constant term the
    output stays in the coefficient ring of ``h``.
    """
    lead = _lead(exp, h.coefficient(0))
    tail = [1]

    def term(n: int) -> Any:
        if n:
            c = h._known(n)
            acc: Any = 0
            for i in range(1, n + 1):
                acc = acc + i * c[i] * tail[n - i]
            tail.append(acc * _in_ring(Fraction(1, n), acc))
        return lead * tail[n]

    return TruncatedSeries._lazy(h.order, term)


def _reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    inv0 = _invert_scalar(s.coefficient(0))
    out: list[Any] = [inv0]

    def term(n: int) -> Any:
        c = s._known(n)
        acc: Any = 0
        for i in range(1, n + 1):
            acc = acc + c[i] * out[n - i]
        return -1 * (inv0 * acc)

    return TruncatedSeries._lazy(s.order, term, out)


def _rational_power(s: TruncatedSeries, alpha: Fraction) -> TruncatedSeries:
    # J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, sec. 4.7):
    # a0 * n * b_n = sum_k ((alpha + 1) * k - n) * a_k * b_(n-k); a0 must be nonzero.
    # Each factor is (num * k - den * n) / den, with alpha + 1 = num / den:
    # a Fraction, or in float rings the int quotient, which is the float
    # that Fraction rounds to.
    a0 = s.coefficient(0)
    inv0 = _invert_scalar(a0)
    out: list[Any] = [_unit_power(a0, alpha)]
    num, den = (alpha + 1).as_integer_ratio()

    def term(n: int) -> Any:
        a = s._known(n)
        acc: Any = 0
        for k in range(1, n + 1):
            m = num * k - den * n
            factor = m / den if _is_float_ring(a[k]) else Fraction(m, den)
            acc = acc + factor * a[k] * out[n - k]
        return acc * (inv0 * _in_ring(Fraction(1, n), inv0))

    return TruncatedSeries._lazy(s.order, term, out)


def _unit_power(value: Any, alpha: Fraction) -> Any:
    # a unit is kept as is: 1 ** alpha would turn an exact 1 into 1.0
    return _lead(lambda v: v if v == 1 else v ** alpha, value)


def _sqrt_series(s: TruncatedSeries) -> TruncatedSeries:
    r0 = _lead(sqrt, s.coefficient(0))
    inv = _invert_scalar(2 * r0)
    out: list[Any] = [r0]

    def term(n: int) -> Any:
        acc: Any = 0
        for i in range(1, n):
            acc = acc + out[i] * out[n - i]
        return (s._known(n)[n] - acc) * inv

    return TruncatedSeries._lazy(s.order, term, out)


def _sin_cos_series(h: TruncatedSeries) -> tuple[TruncatedSeries, TruncatedSeries]:
    # coefficient n of each takes the other's through n - 1
    h0 = h.coefficient(0)
    s: list[Any] = [_lead(sin, h0)]
    c: list[Any] = [_lead(cos, h0)]

    def sine(n: int) -> Any:
        hc, cosine_known = h._known(n), cosine_series._known(n - 1)
        acc: Any = 0
        for i in range(1, n + 1):
            acc = acc + i * hc[i] * cosine_known[n - i]
        return acc * _in_ring(Fraction(1, n), acc)

    def cosine(n: int) -> Any:
        hc, sine_known = h._known(n), sine_series._known(n - 1)
        acc: Any = 0
        for i in range(1, n + 1):
            acc = acc + i * hc[i] * sine_known[n - i]
        acc = -1 * acc
        return acc * _in_ring(Fraction(1, n), acc)

    sine_series = TruncatedSeries._lazy(h.order, sine, s)
    cosine_series = TruncatedSeries._lazy(h.order, cosine, c)
    return sine_series, cosine_series


def _log_series(s: TruncatedSeries) -> TruncatedSeries:
    c0 = s.coefficient(0)
    inv0 = _invert_scalar(c0)
    out: list[Any] = [_lead(log, c0)]

    def term(n: int) -> Any:
        c = s._known(n)
        acc: Any = n * c[n]
        for i in range(1, n):
            acc = acc - i * out[i] * c[n - i]
        acc = acc * inv0
        return acc * _in_ring(Fraction(1, n), acc)

    return TruncatedSeries._lazy(s.order, term, out)


# ---------------------------------------------------------------- transport

def ode_jet_transport(
    field: Callable[[Sequence[TruncatedSeries]], Sequence[Any]],
    start: Sequence[Any],
    order: int,
) -> tuple[TruncatedSeries, ...]:
    """Taylor jet of the solution of ``x' = field(x)``, ``x(0) = start``,
    as the tuple of its coordinates' jets in the time variable.

    The Taylor method (Jorba and Zou, *Experimental Mathematics* 14,
    2005): the field is evaluated once, on coordinate series defined by
    ``x = start + integral of field(x)``, and coefficient ``p`` of every
    coordinate is asked for in turn, ``p = 1 .. order``.  Coefficient
    ``p`` of ``x`` is coefficient ``p - 1`` of the field divided by
    ``p``, and truncated arithmetic is causal, so it needs only
    coefficients ``0 .. p - 1`` of ``x``, known by then; each operation
    of the field computes each of its coefficients once.  The field must
    map a sequence of series to series of the same order or to scalar
    constants, and may read no coefficient of its input but the
    constant term while it runs; a field that returns only scalars
    ignores the jets, and its flow is the line ``start + field * t``.
    A coordinate that no component of the field reads is a quadrature
    along the flow: its jet is its start plus the integral of its
    component, so a quantity that builds up along the flow is
    transported with it (a radial profile's phase and log-weight ride
    so).  Anything the field cannot handle surfaces as
    :class:`~lapasym.errors.JetEvaluationError`.
    """
    if order < 1:
        raise ValueError("transport order must be >= 1")
    dim = len(start)
    rhs: list = []

    def coordinate(i: int, x0: Any) -> TruncatedSeries:
        def term(p: int) -> Any:
            if not rhs:
                raise JetEvaluationError(
                    "flow field reads coefficients of its input past the constant term"
                )
            r = rhs[i]
            c = r.coefficient(p - 1) if isinstance(r, TruncatedSeries) else r if p == 1 else 0
            return c * _in_ring(Fraction(1, p), c)

        return TruncatedSeries._lazy(order, term, [0 + x0])

    coords = [coordinate(i, x0) for i, x0 in enumerate(start)]
    try:
        values = list(field(coords))
        if len(values) != dim:
            raise JetEvaluationError(
                f"flow field returned {len(values)} components for dimension {dim}"
            )
        rhs.extend(values)
        for p in range(1, order + 1):
            for x in coords:
                x.coefficient(p)
    except JetEvaluationError:
        raise
    except (TypeError, AttributeError) as exc:
        raise JetEvaluationError(
            f"flow field cannot be evaluated on jets: {exc}"
        ) from exc
    return tuple(coords)
