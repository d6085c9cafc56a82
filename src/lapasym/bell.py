"""Partition combinatorics and Bell-type polynomials over exact rationals.

This module supplies the raw combinatorial layer: integer partition
tuples and compositions, the partition multinomial ``c(j; n)``, partial
and complete exponential Bell polynomials, power coefficients of a
constant-free power series, and the generalized binomial coefficient.
Everything works over any commutative ring whose elements support ``+``,
``*`` and integer powers, so the same code runs on exact rationals
(:class:`fractions.Fraction`), floats, and truncated series.

Two indexings for partition data coexist and are easy to confuse:

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

The coefficient path does not use this module; it works with the series
recurrences of :mod:`.jets`.  These sums serve the ``bell-table``
command, the independent cross-check routes
(:func:`~lapasym.models.zeta_geometric`,
:func:`~lapasym.models.zeta2_reference`) and the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from .errors import DomainError

__all__ = [
    "partition_tuples",
    "composition_tuples",
    "partition_multinomial",
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
        # the empty tuple sums to 0, so it qualifies only for j == 1 - 1 == 0 ... never:
        # count must equal 0, i.e. j == -1, already excluded; j == 0 gives count 1.
        return [()] if count == 0 else []
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


def composition_tuples(m: int, r: int) -> list[tuple[int, ...]]:
    """All ordered tuples of ``r`` positive integers summing to ``m``.

    Returned in ascending lexicographic order.

    Examples
    --------
    >>> composition_tuples(3, 2)
    [(1, 2), (2, 1)]
    >>> composition_tuples(2, 1)
    [(2,)]
    """
    if m < 0 or r < 0:
        raise ValueError("composition indices must be nonnegative")
    if r == 0:
        return [()] if m == 0 else []
    out: list[tuple[int, ...]] = []
    parts = [0] * r

    def fill(pos: int, remaining: int) -> None:
        if pos == r - 1:
            if remaining >= 1:
                parts[pos] = remaining
                out.append(tuple(parts))
            return
        # leave at least 1 for each later slot
        for q in range(1, remaining - (r - pos - 1) + 1):
            parts[pos] = q
            fill(pos + 1, remaining - q)

    fill(0, m)
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
    Fraction(16, 1)
    """
    if j == 0 and l == 0:
        return 1
    if not 1 <= l <= j:
        raise ValueError(f"partial Bell needs 1 <= l <= j, got j={j} l={l}")
    if len(x) < j - l + 1:
        raise ValueError(f"need at least {j - l + 1} entries, got {len(x)}")
    total: Any = 0
    for counts in partition_tuples(j, j - l + 1):
        term: Any = partition_multinomial(j, counts)
        for i, n in enumerate(counts, 1):
            if n:
                term = term * x[i - 1] ** n
        total = total + term
    return total


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

    Computed by the recursion ``C(m, r) = sum_j x_{m-j} * C(j, r-1)``
    with initial data ``C(m, 1) = x_m``.  By convention the value is 0
    for ``r > m`` (fewer than ``r`` factors of ``t`` are unavailable)
    and ``C(0, 0) = 1``.

    Equivalently, the sum over all ordered tuples of ``r`` positive
    integers summing to ``m`` of the product ``x_{q1} * ... * x_{qr}``.

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
    # row[q] holds C(q, s); parts never exceed m - r + 1 along admissible paths
    row: dict[int, Any] = {0: 1}
    for s in range(1, r + 1):
        nxt: dict[int, Any] = {}
        for q in range(s, m - r + s + 1):
            acc: Any = 0
            for jprev in range(s - 1, q):
                if jprev in row and q - jprev <= m - r + 1:
                    acc = acc + x[q - jprev - 1] * row[jprev]
            nxt[q] = acc
        row = nxt
    return row[m]


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
