"""Partition combinatorics and Bell-type polynomials over exact rationals.

This module is the only place that enumerates Bell-type terms.  It
supplies the partitions of an integer by number of parts, the term
lists of partial Bell polynomials and of power coefficients of a
constant-free power series, their evaluations, the complete Bell
polynomial, and the generalized binomial coefficient.  Everything works
over any commutative ring whose elements support ``+``, ``*`` and
integer powers, so the same code runs on exact rationals
(:class:`fractions.Fraction`), floats, truncated series and symbols.

A partition is a map ``{i: n_i}`` from each part size ``i`` that occurs
to its count ``n_i``, in ascending ``i``.  Both term lists sum over the
same partitions, :func:`partitions` ``(m, parts)`` of ``m`` into
exactly ``parts`` parts: :func:`partial_bell_terms` weights each by the
set partitions of ``{1, ..., j}`` it counts, :func:`power_terms` by the
compositions it collects.

The term lists are what the ``bell-table`` command prints.  Their
evaluations :func:`partial_bell`, :func:`complete_bell` and
:func:`series_power_coefficient` serve the independent raw cross-check
route (:func:`~lapasym.crosscheck.zeta_geometric`) and the tests, and
:func:`generalized_binomial` serves both cross-check routes; the
coefficient path does not use this module, it works with the series
recurrences of :mod:`.jets`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

__all__ = [
    "partitions",
    "partial_bell_terms",
    "power_terms",
    "partial_bell",
    "complete_bell",
    "series_power_coefficient",
    "generalized_binomial",
]


def partitions(m: int, parts: int) -> list[dict[int, int]]:
    """The partitions of ``m`` into exactly ``parts`` parts, as ``{size: count}`` maps.

    Ascending in the counts ``(n_1, n_2, ...)`` of parts of size 1, 2,
    ...; empty when no partition exists, and ``[{}]`` for ``m == parts
    == 0``.

    Examples
    --------
    >>> partitions(4, 2)
    [{2: 2}, {1: 1, 3: 1}]
    >>> partitions(6, 3)
    [{2: 3}, {1: 1, 2: 1, 3: 1}, {1: 2, 4: 1}]
    """
    if m < 0 or parts < 0:
        raise ValueError("partition indices must be nonnegative")
    if not 0 < parts <= m:
        return [{}] if m == parts else []
    out: list[dict[int, int]] = []

    def fill(size: int, parts: int, weight: int, head: dict[int, int]) -> None:
        # head counts the parts below size; parts more remain, of total
        # weight at least size * parts.  n of them have size size, from the
        # fewest that leave the rest room above size, up to all of them
        if parts == 1:
            out.append({**head, weight: 1})
            return
        for n in range(max(0, (size + 1) * parts - weight), parts):
            fill(size + 1, parts - n, weight - size * n, {**head, size: n} if n else head)
        if weight == size * parts:
            out.append({**head, size: parts})

    fill(1, parts, m, {})
    return out


def partial_bell_terms(j: int, l: int) -> list[tuple[int, dict[int, int]]]:
    """Terms ``(c, {i: n_i})`` of ``B_{j,l}``, one per partition of ``j`` into ``l`` blocks.

    The partition multinomial ``c = j! / prod_i (i!)**n_i * n_i!``
    counts the set partitions of ``{1, ..., j}`` with ``n_i`` blocks of
    size ``i``; the terms of
    ``B_{0,0} = 1`` are ``[(1, {})]``.

    Examples
    --------
    >>> partial_bell_terms(4, 2)
    [(3, {2: 2}), (4, {1: 1, 3: 1})]
    """
    return [(math.factorial(j) // math.prod(math.factorial(i) ** n * math.factorial(n)
                                            for i, n in p.items()), p)
            for p in partitions(j, l)]


def power_terms(m: int, r: int) -> list[tuple[int, dict[int, int]]]:
    """Terms ``(orderings, {i: n_i})`` of ``[t**m] (x1*t + x2*t**2 + ...) ** r``.

    One term per partition of ``m`` into ``r`` parts, ``n_i`` of size
    ``i``; its ``r! / prod n_i!`` orderings are the compositions it
    collects.

    Examples
    --------
    >>> power_terms(6, 3)
    [(1, {2: 3}), (6, {1: 1, 2: 1, 3: 1}), (3, {1: 2, 4: 1})]
    """
    return [(math.factorial(r) // math.prod(math.factorial(n) for n in p.values()), p)
            for p in partitions(m, r)]


def _evaluate(terms: list[tuple[int, dict[int, int]]], x: Sequence[Any]) -> Any:
    total: Any = 0
    for coeff, exponents in terms:
        term: Any = coeff
        for i, n in exponents.items():
            term = term * x[i - 1] ** n
        total = total + term
    return total


def partial_bell(j: int, l: int, x: Sequence[Any]) -> Any:
    """Partial exponential Bell polynomial ``B_{j,l}(x1, ..., x_{j-l+1})``.

    Sums ``c * prod x_i**n_i`` over the terms ``(c, {i: n_i})`` of
    :func:`partial_bell_terms`, one per partition of ``j`` into exactly
    ``l`` blocks.  ``x`` is 1-indexed conceptually: ``x[0]``
    plays the role of ``x1``.

    Examples
    --------
    >>> partial_bell(3, 2, [1, 1, 1])
    3
    >>> from fractions import Fraction
    >>> partial_bell(4, 2, [Fraction(1), Fraction(2), Fraction(3)])
    Fraction(24, 1)
    """
    if j == 0 and l == 0:
        return 1
    if not 1 <= l <= j:
        raise ValueError(f"partial Bell needs 1 <= l <= j, got j={j} l={l}")
    if len(x) < j - l + 1:
        raise ValueError(f"need at least {j - l + 1} entries, got {len(x)}")
    return _evaluate(partial_bell_terms(j, l), x)


def complete_bell(j: int, x: Sequence[Any]) -> Any:
    """Complete exponential Bell polynomial ``B_j = sum_l B_{j,l}``; ``B_0 = 1``.

    Equals ``j!`` times the ``j``-th Taylor coefficient of
    ``exp(sum_i x_i t**i / i!)``.

    Examples
    --------
    >>> complete_bell(3, [1, 1, 1])   # Bell number 5
    5
    """
    if j == 0:
        return 1
    if len(x) < j:
        raise ValueError(f"need at least {j} entries, got {len(x)}")
    total: Any = 0
    for l in range(1, j + 1):
        total = total + partial_bell(j, l, x)
    return total


def series_power_coefficient(m: int, r: int, x: Sequence[Any]) -> Any:
    """Coefficient of ``t**m`` in ``(x1*t + x2*t**2 + ...) ** r``.

    The sum over all ordered tuples of ``r`` positive integers summing
    to ``m`` of the product ``x_{q1} * ... * x_{qr}``, collected by
    partition (:func:`power_terms`).  By convention the value is 0 for
    ``r > m`` (fewer than ``r`` factors of ``t`` are unavailable) and 1
    for ``m == r == 0``.

    Examples
    --------
    >>> series_power_coefficient(3, 2, [2, 5, 7])
    20
    >>> series_power_coefficient(2, 3, [1, 1])
    0
    """
    if m < 0 or r < 0:
        raise ValueError("series power indices must be nonnegative")
    if r == 0:
        return 1 if m == 0 else 0
    if r > m:
        return 0
    if len(x) < m - r + 1:
        raise ValueError(f"need at least {m - r + 1} entries, got {len(x)}")
    return _evaluate(power_terms(m, r), x)


def generalized_binomial(alpha: Any, r: int) -> Any:
    """Generalized binomial coefficient ``alpha (alpha-1) ... (alpha-r+1) / r!``.

    Exact when ``alpha`` is an int or :class:`fractions.Fraction`.

    Examples
    --------
    >>> generalized_binomial(Fraction(-3, 2), 2)
    Fraction(15, 8)
    >>> generalized_binomial(0.5, 0)
    1
    """
    if r < 0:
        raise ValueError("binomial order must be nonnegative")
    if r == 0:
        return 1
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    prod: Any = alpha
    for i in range(1, r):
        prod = prod * (alpha - i)
    return prod * Fraction(1, math.factorial(r))
