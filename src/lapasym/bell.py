"""Partition combinatorics and Bell-type polynomials over exact rationals.

This module is the only place that enumerates Bell-type terms.  It
supplies integer partition tuples, the partition multinomial
``c(j; n)``, the term lists of partial Bell polynomials and of power
coefficients of a constant-free power series, their evaluations, the
complete Bell polynomial, and the generalized binomial coefficient.
Everything works over any commutative ring whose elements support ``+``,
``*`` and integer powers, so the same code runs on exact rationals
(:class:`fractions.Fraction`), floats, truncated series and symbols.

The term lists :func:`partial_bell_terms` and :func:`power_terms` are
what the ``bell-table`` command prints.  Their evaluations
:func:`partial_bell`, :func:`complete_bell` and
:func:`series_power_coefficient` serve the independent raw cross-check
route (:func:`~lapasym.models.zeta_geometric`) and the tests, and
:func:`generalized_binomial` serves both cross-check routes; the
coefficient path does not use this module, it works with the series
recurrences of :mod:`.jets`.

Two indexings for partition data coexist and are easy to confuse; only
this module uses the first:

* :func:`partition_tuples` ``(j, l)`` returns the length-``l`` tuples
  ``(n1, ..., nl)`` with ``sum(n) == j - l + 1`` and
  ``sum(i * n_i) == j``.  A tuple encodes a partition of ``j`` whose
  block sizes are bounded by ``l``; the number of blocks is
  ``j - l + 1``.
* :func:`partial_bell` ``(j, l, x)`` is the classical partial Bell
  polynomial ``B_{j,l}``, the sum over partitions of ``j`` into exactly
  ``l`` blocks.  Its tuples are ``partition_tuples(j, j - l + 1)``.

The two agree when ``l == j - l + 1`` and differ otherwise; the complete
polynomial :func:`complete_bell` is the same either way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from .errors import DomainError

__all__ = [
    "partition_tuples",
    "partition_multinomial",
    "partial_bell_terms",
    "power_terms",
    "partial_bell",
    "complete_bell",
    "series_power_coefficient",
    "generalized_binomial",
]
def partition_tuples(j: int, l: int) -> list[tuple[int, ...]]:
    """All length-``l`` tuples ``n`` with ``sum(n) == j - l + 1`` and ``sum(i*n_i) == j``.

    Parameters
    ----------
    j : int
        Weight of the partition (nonnegative).
    l : int
        Tuple length, i.e. the largest part size recorded (nonnegative).

    Returns
    -------
    list of tuple of int
        Tuples in ascending lexicographic order.  Empty when the two
        constraints are incompatible.

    Examples
    --------
    >>> partition_tuples(3, 2)
    [(1, 1)]
    >>> partition_tuples(4, 2)
    [(2, 1)]
    >>> partition_tuples(4, 3)
    [(0, 2, 0), (1, 0, 1)]
    """
    if j < 0 or l < 0:
        raise ValueError("partition indices must be nonnegative")
    count = j - l + 1
    if count < 0:
        return []
    if l == 0:
        return []
    out: list[tuple[int, ...]] = []
    tup = [0] * l

    def fill(pos: int, remaining: int, weight: int) -> None:
        # remaining parts to place among positions pos..l, remaining weight to absorb
        if pos == l:
            if remaining * l == weight:
                tup[l - 1] = remaining
                out.append(tuple(tup))
            return
        # position pos is 1-based size `pos`; later positions have size >= pos + 1
        for n in range(remaining + 1):
            rest = remaining - n
            w = weight - pos * n
            if w < 0:
                break
            # remaining parts must fit between the smallest and largest later sizes
            if (pos + 1) * rest <= w <= l * rest or (rest == 0 and w == 0):
                tup[pos - 1] = n
                if rest == 0 and w == 0:
                    for q in range(pos, l):
                        tup[q] = 0
                    out.append(tuple(tup))
                else:
                    fill(pos + 1, rest, w)
        tup[pos - 1] = 0

    fill(1, count, j)
    return out


def _validate_partition_tuple(j: int, counts: Sequence[int]) -> None:
    l = len(counts)
    if any(n < 0 for n in counts):
        raise DomainError(f"negative part count in {tuple(counts)}")
    if sum(counts) != j - l + 1 or sum(i * n for i, n in enumerate(counts, 1)) != j:
        raise DomainError(
            f"{tuple(counts)} is not a valid partition tuple for weight {j}"
        )


def partition_multinomial(j: int, counts: Sequence[int]) -> int:
    """The multiplicity ``j! / prod_i (i!)**n_i * n_i!`` of a partition tuple.

    Counts the set partitions of ``{1, ..., j}`` with ``n_i`` blocks of
    size ``i``.  The tuple is validated literally (trailing zeros
    included): with ``l = len(counts)`` it must satisfy
    ``sum(counts) == j - l + 1`` and ``sum(i * n_i) == j``.

    Examples
    --------
    >>> partition_multinomial(3, (1, 1))
    3
    >>> partition_multinomial(4, (2, 1))
    6
    """
    _validate_partition_tuple(j, counts)
    denom = 1
    for i, n in enumerate(counts, 1):
        denom *= math.factorial(i) ** n * math.factorial(n)
    quot, rem = divmod(math.factorial(j), denom)
    if rem:  # cannot happen for valid tuples; guards the integer contract
        raise ArithmeticError("partition multinomial is not integral")
    return quot


def _exponents(counts: Sequence[int]) -> dict[int, int]:
    return {i: n for i, n in enumerate(counts, start=1) if n}


def partial_bell_terms(j: int, l: int) -> list[tuple[int, dict[int, int]]]:
    """Terms ``(c(j; n), {i: n_i})`` of ``B_{j,l}``, one per partition of ``j``.

    The exponent map lists each nonzero ``n_i``, the count of blocks of
    size ``i``; the terms of ``B_{0,0} = 1`` are ``[(1, {})]``.

    Examples
    --------
    >>> partial_bell_terms(4, 2)
    [(3, {2: 2}), (4, {1: 1, 3: 1})]
    """
    if j == 0 and l == 0:
        return [(1, {})]
    return [(partition_multinomial(j, counts), _exponents(counts))
            for counts in partition_tuples(j, j - l + 1)]


def power_terms(m: int, r: int) -> list[tuple[int, dict[int, int]]]:
    """Terms ``(orderings, {i: n_i})`` of ``[t**m] (x1*t + x2*t**2 + ...) ** r``.

    One term per partition of ``m`` into ``r`` parts, ``n_i`` of size
    ``i``; its ``r! / prod n_i!`` orderings are the compositions it
    collects.  Needs ``r <= m + 1``.

    Examples
    --------
    >>> power_terms(6, 3)
    [(1, {2: 3}), (6, {1: 1, 2: 1, 3: 1}), (3, {1: 2, 4: 1})]
    """
    return [(math.factorial(r) // math.prod(math.factorial(n) for n in counts),
             _exponents(counts))
            for counts in partition_tuples(m, m - r + 1)]


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

    Sums ``c(j; n) * prod x_i**n_i`` over the partitions of ``j`` into
    exactly ``l`` blocks.  ``x`` is 1-indexed conceptually: ``x[0]``
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
