"""Declarative expression trees for model configuration files.

A model config describes its scalar maps as nested prefix lists that
survive a round trip through JSON, for example::

    ["*", "w0", ["+", "x0", ["*", "1/2", ["pow", "x0", 3]]]]

Leaves are finite numbers (``int``/``float``), exact rational strings
such as ``"1/2"``, the constant ``"pi"``, or symbol names (``x0``,
``w0``, ``s``, ...) bound by position when the tree is compiled.
Interior nodes are ``[op, arg, ...]`` with operators

======== ======================================================
``+ *``  n-ary sum / product (at least two arguments)
``-``    unary negation or binary difference
``/``    binary quotient
``neg``  unary negation
``pow``  base expression and a literal integer exponent
``sin cos exp sqrt log``  unary, dispatched through :mod:`.jets`
======== ======================================================

Compiled expressions evaluate on whatever the environment supplies:
plain numbers, exact rationals, numpy arrays (elementwise), or
truncated series, so one config works for point evaluation, for many
points at once and for jet transport alike.  A tree wrapped in
:class:`Positional` with its symbol list compiles to a function of a
sequence read by position: ``symbols[i]`` is ``env[i]``.  A model's
callables bind ``x0, ..., w0, ...`` this way once.  A bare tree
compiles with no symbols.

Compilation folds every symbol-free subtree, and the leading
symbol-free arguments of ``+`` and ``*``, into one constant.  The fold
runs the same operations, in the same left-to-right order, that
evaluation would run, so Fractions stay Fractions, floats stay floats,
and exact, float and series results are bit-identical to evaluating
the unfolded tree.  A fold that fails (a zero divisor, the square root
of a negative number) is a :class:`~lapasym.errors.DomainError` at
compile time; so are structural problems (unknown operator, bad arity,
non-integer exponent), a number that is not finite and a symbol
missing from ``symbols``.  A zero divisor met during evaluation is a
:class:`~lapasym.errors.DomainError` when the expression is evaluated,
also when the divisor is an array with a zero entry.
"""

from __future__ import annotations

import json
import math
import operator
import re
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import jets
from .errors import DomainError
from .jets import numpy_if_array

__all__ = ["Positional", "compile_expression"]

CompiledExpr = Callable[[Any], Any]

_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

_UNARY_MAPS = {
    "neg": operator.neg,
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "sqrt": jets.sqrt,
    "log": jets.log,
}


class Positional(NamedTuple):
    """An expression tree whose symbols are read by position.

    Compiled, it takes a sequence holding the value of ``symbols[i]`` at
    position ``i``; a symbol not in ``symbols`` is refused at compile
    time.
    """

    node: Any
    symbols: tuple


class _Folded(NamedTuple):
    """A symbol-free subtree, already evaluated."""

    value: Any


def _constant(value: Any) -> CompiledExpr:
    return lambda env: value


def _fold(node: Any, op: Callable, *values: Any) -> _Folded:
    try:
        return _Folded(op(*values))
    except (ArithmeticError, ValueError) as exc:  # a DomainError is a ValueError
        where = json.dumps(node)
        if where in str(exc):  # a zero divisor's error names its node already
            raise
        raise DomainError(f"cannot evaluate {where}: {exc}") from None


def _unary(node: Any, op: Callable, part: Any) -> Any:
    if isinstance(part, _Folded):
        return _fold(node, op, part.value)
    return lambda env: op(part(env))


def _binary(node: Any, op: Callable, left: Any, right: Any) -> Any:
    # one closure per shape, so a folded operand costs no call
    if isinstance(left, _Folded):
        if isinstance(right, _Folded):
            return _fold(node, op, left.value, right.value)
        c = left.value
        if isinstance(c, Fraction):
            f = float(c)
            return lambda env: _with_fraction(op, c, f, right(env), first=True)
        return lambda env: op(c, right(env))
    if isinstance(right, _Folded):
        c = right.value
        if isinstance(c, Fraction):
            f = float(c)
            return lambda env: _with_fraction(op, c, f, left(env), first=False)
        return lambda env: op(left(env), c)
    return lambda env: op(left(env), right(env))


def _with_fraction(op: Callable, c: Fraction, f: float, x: Any, first: bool) -> Any:
    # numpy would make an object array of a Fraction and a float array; a
    # Fraction meets a float as its float, so the elements come out the same
    if numpy_if_array(x) is not None:
        c = f
    return op(c, x) if first else op(x, c)


def _quotient(node: Any) -> Callable[[Any, Any], Any]:
    def divide(a: Any, b: Any) -> Any:
        try:
            # numpy divides by zero without raising, in arrays and its scalars
            np = numpy_if_array(a, scalars=True) or numpy_if_array(b, scalars=True)
            if np is not None and not np.all(b):
                raise ZeroDivisionError
            return a / b
        except ZeroDivisionError:
            raise DomainError(f"division by zero in {json.dumps(node)}") from None

    return divide


def _compile_leaf(node: str, symbols: tuple) -> Any:
    if node == "pi":
        return _Folded(math.pi)
    if _SYMBOL.match(node):
        if node not in symbols:
            allowed = ", ".join(symbols) or "none"
            raise DomainError(f"unknown symbol {node!r} in expression; allowed: {allowed}")
        return operator.itemgetter(symbols.index(node))
    try:
        value = Fraction(node)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"unreadable expression leaf {node!r}") from None
    if value.denominator == 1:
        return _Folded(value.numerator)
    return _Folded(value)


def _compile(node: Any, symbols: tuple) -> Any:
    """A :class:`_Folded` constant, or a compiled ``env -> value``."""
    if isinstance(node, bool):
        raise DomainError("booleans are not expression leaves")
    if isinstance(node, float) and not math.isfinite(node):
        # JSON's NaN and Infinity, and literals that overflow such as 1e400
        raise DomainError(f"expression leaf {json.dumps(node)} is not finite")
    if isinstance(node, (int, float)):
        return _Folded(node)
    if isinstance(node, str):
        return _compile_leaf(node, symbols)
    if not isinstance(node, (list, tuple)) or not node:
        raise DomainError(f"bad expression node {node!r}")

    op, *raw_args = node
    if not isinstance(op, str):
        raise DomainError(f"unknown operator {op!r}")
    if op == "pow":
        if len(raw_args) != 2 or isinstance(raw_args[1], bool) \
                or not isinstance(raw_args[1], int):
            raise DomainError("pow takes an expression and a literal integer")
        base = _compile(raw_args[0], symbols)
        exponent = raw_args[1]
        if isinstance(base, _Folded):
            return _fold(node, operator.pow, base.value, exponent)
        return lambda env: base(env) ** exponent

    args = [_compile(a, symbols) for a in raw_args]
    if op in ("+", "*"):
        if len(args) < 2:
            raise DomainError(f"{op} takes at least two arguments")
        # left to right, as evaluation adds or multiplies: the leading
        # symbol-free run folds, the rest stays in order
        combine = operator.add if op == "+" else operator.mul
        total = args[0]
        for a in args[1:]:
            total = _binary(node, combine, total, a)
        return total
    if op == "-":
        if len(args) == 1:
            return _unary(node, operator.neg, args[0])
        if len(args) == 2:
            return _binary(node, operator.sub, args[0], args[1])
        raise DomainError("- takes one or two arguments")
    if op == "/":
        if len(args) != 2:
            raise DomainError("/ takes two arguments")
        return _binary(node, _quotient(node), args[0], args[1])
    if op in _UNARY_MAPS:
        if len(args) != 1:
            raise DomainError(f"{op} takes one argument")
        return _unary(node, _UNARY_MAPS[op], args[0])
    raise DomainError(f"unknown operator {op!r}")


def compile_expression(node: Any) -> CompiledExpr:
    """Compile a prefix-list expression into ``env -> value``.

    For a :class:`Positional` tree the environment is a sequence read by
    position; a bare tree has no symbols, and its compiled form ignores
    the environment.  The binding travels with the tree, so the one
    argument is all a caller or a wrapper of this function passes on.
    """
    if not isinstance(node, Positional):
        node = Positional(node, ())
    compiled = _compile(node.node, tuple(node.symbols))
    if isinstance(compiled, _Folded):
        return _constant(compiled.value)
    return compiled
