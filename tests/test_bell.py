"""Tests for the partition combinatorics layer.

Expected values come from independent oracles: a brute-force set
partition enumerator, direct polynomial multiplication over exact
rationals, and sympy expansions for structural (monomial-level) checks.
"""

from __future__ import annotations

import doctest
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from lapasym import bell
from lapasym.bell import (
    complete_bell,
    generalized_binomial,
    partial_bell,
    partition_multinomial,
    partition_tuples,
    power_terms,
    series_power_coefficient,
)
from lapasym.errors import DomainError


# ---------------------------------------------------------------- oracles

def iter_set_partitions(elems):
    # every set partition of a list, built by inserting the head element
    # into each block of each partition of the tail, or as a new block
    if not elems:
        yield []
        return
    head, tail = elems[0], elems[1:]
    for part in iter_set_partitions(tail):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield part + [[head]]


def bell_number_bruteforce(j):
    return sum(1 for _ in iter_set_partitions(list(range(j))))


def stirling2_bruteforce(j, l):
    return sum(1 for p in iter_set_partitions(list(range(j))) if len(p) == l)


def poly_power_coefficient(m, r, x):
    # coefficient of t**m in (x1 t + ... + xm t**m)**r by repeated convolution
    base = [0] + list(x[:m])
    acc = [1]
    for _ in range(r):
        out = [0] * (m + 1)
        for i, a in enumerate(acc[: m + 1]):
            if a == 0:
                continue
            for q, b in enumerate(base):
                if i + q <= m:
                    out[i + q] += a * b
        acc = out
    return acc[m] if m < len(acc) else 0


def compositions(m, r):
    # ordered tuples of r positive integers summing to m, first part first
    if r == 0:
        if m == 0:
            yield ()
        return
    for first in range(1, m - r + 2):
        for rest in compositions(m - first, r - 1):
            yield (first, *rest)


def exp_taylor_bruteforce(order, h):
    # Taylor coefficients of exp(h(t)) for h with h(0) = 0, by the linear
    # recursion obtained from u' = h' u
    u = [Fraction(1)]
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            if i < len(h):
                acc += i * h[i] * u[n - i]
        u.append(acc / n)
    return u


# ---------------------------------------------------------------- enumerators

def test_partition_tuples_frozen_examples():
    assert partition_tuples(3, 2) == [(1, 1)]
    assert partition_tuples(4, 2) == [(2, 1)]
    assert partition_tuples(4, 3) == [(0, 2, 0), (1, 0, 1)]
    for j in range(1, 9):
        assert partition_tuples(j, 1) == [(j,)]


def test_partition_tuples_constraints_and_order():
    for j in range(13):
        for l in range(j + 2):
            tuples = partition_tuples(j, l)
            assert tuples == sorted(tuples)
            assert len(set(tuples)) == len(tuples)
            for tup in tuples:
                assert len(tup) == l
                assert sum(tup) == j - l + 1
                assert sum(i * n for i, n in enumerate(tup, 1)) == j


def test_partition_tuples_rejects_negative():
    with pytest.raises(ValueError):
        partition_tuples(-1, 2)


# ---------------------------------------------------------------- multinomial

def test_partition_multinomial_frozen():
    assert partition_multinomial(3, (1, 1)) == 3
    assert partition_multinomial(4, (2, 1)) == 6
    assert partition_multinomial(6, (1, 1, 1, 0)) == 60
    assert partition_multinomial(6, (0, 3, 0, 0)) == 15
    assert partition_multinomial(6, (2, 0, 0, 1)) == 15


def test_partition_multinomial_counts_set_partitions():
    # multiplicity of each block-size profile among all set partitions
    for j in range(1, 8):
        profile_counts = {}
        for part in iter_set_partitions(list(range(j))):
            sizes = [0] * j
            for block in part:
                sizes[len(block) - 1] += 1
            profile_counts[tuple(sizes)] = profile_counts.get(tuple(sizes), 0) + 1
        for full_profile, count in profile_counts.items():
            l = max(i for i, n in enumerate(full_profile, 1) if n)
            blocks = sum(full_profile)
            tup = full_profile[: j - blocks + 1]
            # tuple length in the enumerator convention is j - blocks + 1
            assert sum(tup) == blocks
            assert partition_multinomial(j, tup) == count


def test_partition_multinomial_rejects_invalid():
    with pytest.raises(DomainError):
        partition_multinomial(4, (1, 1))       # weighted sum is 3, not 4
    with pytest.raises(DomainError):
        partition_multinomial(3, (1, 1, 0))    # trailing zero breaks the count rule
    with pytest.raises(DomainError):
        partition_multinomial(3, (-1, 2))


# ---------------------------------------------------------------- Bell polynomials

def test_partial_bell_frozen_structure():
    x = sympy.symbols("x1:8")
    assert sympy.expand(partial_bell(3, 2, x) - 3 * x[0] * x[1]) == 0
    assert sympy.expand(
        partial_bell(4, 2, x) - (4 * x[0] * x[2] + 3 * x[1] ** 2)
    ) == 0
    for j in range(1, 8):
        assert sympy.expand(partial_bell(j, 1, x) - x[j - 1]) == 0
        assert sympy.expand(partial_bell(j, j, x) - x[0] ** j) == 0


def test_partial_bell_matches_stirling_counts():
    for j in range(1, 8):
        for l in range(1, j + 1):
            ones = [1] * j
            assert partial_bell(j, l, ones) == stirling2_bruteforce(j, l)


def test_complete_bell_structure_and_bell_numbers():
    x = sympy.symbols("x1:5")
    expected = x[0] ** 3 + 3 * x[0] * x[1] + x[2]
    assert sympy.expand(complete_bell(3, x) - expected) == 0
    for j in range(8):
        assert complete_bell(j, [1] * max(j, 1)) == bell_number_bruteforce(j)


def test_complete_bell_is_exp_taylor_coefficient():
    # B_j(x1..xj) == j! * [t^j] exp(sum x_i t^i / i!) on random rationals
    rng = random.Random(20260822)
    fact = [1]
    for i in range(1, 11):
        fact.append(fact[-1] * i)
    for _ in range(12):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)]
        h = [Fraction(0)] + [x[i - 1] / fact[i] for i in range(1, 11)]
        u = exp_taylor_bruteforce(10, h)
        for j in range(11):
            expect = fact[j] * u[j]
            got = complete_bell(j, x[:j] if j else [])
            assert got == expect


# ---------------------------------------------------------------- series powers

def test_series_power_coefficient_conventions():
    x = sympy.symbols("x1:11")
    assert series_power_coefficient(0, 0, []) == 1
    assert series_power_coefficient(3, 0, x) == 0
    assert series_power_coefficient(2, 3, x) == 0          # r > m vanishes
    for m in range(1, 9):
        assert sympy.expand(series_power_coefficient(m, 1, x) - x[m - 1]) == 0
        assert sympy.expand(series_power_coefficient(m, m, x) - x[0] ** m) == 0


def test_series_power_coefficient_footnote_polynomial():
    # third power, weight six: 6 x1 x2 x3 + 3 x1^2 x4 + x2^3
    x = sympy.symbols("x1:7")
    expected = 6 * x[0] * x[1] * x[2] + 3 * x[0] ** 2 * x[3] + x[1] ** 3
    assert sympy.expand(series_power_coefficient(6, 3, x) - expected) == 0
    # the same polynomial from the direct sympy power expansion
    t = sympy.symbols("t")
    series = sum(x[i] * t ** (i + 1) for i in range(6))
    direct = sympy.expand(series ** 3).coeff(t, 6)
    assert sympy.expand(series_power_coefficient(6, 3, x) - direct) == 0


def test_series_power_coefficient_vs_bruteforce_convolution():
    rng = random.Random(17)
    for _ in range(25):
        m = rng.randint(1, 10)
        r = rng.randint(1, 10)
        x = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        assert series_power_coefficient(m, r, x) == poly_power_coefficient(m, r, x)


def test_series_power_coefficient_vs_composition_route():
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(1, 9)
        r = rng.randint(1, m)
        x = [Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(m)]
        total = Fraction(0)
        for parts in compositions(m, r):
            prod = Fraction(1)
            for q in parts:
                prod *= x[q - 1]
            total += prod
        assert series_power_coefficient(m, r, x) == total


def test_power_terms_match_composition_count():
    # the bell-table power rows; reference: aggregate the ordered
    # compositions by their multiset of parts
    def brute(m, r):
        counted = Counter(
            tuple(sorted(Counter(parts).items())) for parts in compositions(m, r)
        )
        return sorted((key, count) for key, count in counted.items())

    for m in range(13):
        for r in range(1 if m else 0, m + 1):
            got = sorted((tuple(sorted(e.items())), c) for c, e in power_terms(m, r))
            assert got == brute(m, r), (m, r)


# ---------------------------------------------------------------- binomials

def test_generalized_binomial_frozen():
    assert generalized_binomial(Fraction(-3, 2), 2) == Fraction(15, 8)
    assert generalized_binomial(Fraction(-3, 2), 1) == Fraction(-3, 2)
    assert generalized_binomial(Fraction(7, 2), 0) == 1
    assert generalized_binomial(5, 2) == 10
    assert generalized_binomial(3, 5) == 0


def test_generalized_binomial_pascal_rule():
    rng = random.Random(5)
    for _ in range(30):
        alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        r = rng.randint(1, 8)
        lhs = generalized_binomial(alpha, r)
        rhs = generalized_binomial(alpha - 1, r) + generalized_binomial(alpha - 1, r - 1)
        assert lhs == rhs


def test_generalized_binomial_rejects_negative_order():
    with pytest.raises(ValueError):
        generalized_binomial(Fraction(1, 2), -1)


def test_exact_outputs_stay_rational():
    x = [Fraction(3, 7), Fraction(-1, 2), Fraction(5, 3), Fraction(2, 9)]
    assert isinstance(partial_bell(4, 2, x), Fraction)
    assert isinstance(series_power_coefficient(4, 2, x), Fraction)
    assert isinstance(generalized_binomial(Fraction(-5, 2), 3), Fraction)


# ---------------------------------------------------------------- docstrings

def test_bell_doctests():
    result = doctest.testmod(bell)
    assert result.attempted > 0 and result.failed == 0
