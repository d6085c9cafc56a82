"""Tests for the partition combinatorics layer.

Expected values come from independent oracles: a brute-force set
partition enumerator, direct polynomial multiplication over exact
rationals, and sympy expansions for structural (monomial-level) checks.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from lapasym.bell import (
    complete_bell,
    generalized_binomial,
    partial_bell,
    partial_bell_terms,
    partitions,
    power_terms,
    series_power_coefficient,
)


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

def test_partitions_frozen_examples():
    assert partitions(4, 2) == [{2: 2}, {1: 1, 3: 1}]
    assert partitions(6, 3) == [{2: 3}, {1: 1, 2: 1, 3: 1}, {1: 2, 4: 1}]
    for j in range(1, 9):
        assert partitions(j, 1) == [{j: 1}]
    assert partitions(0, 0) == [{}]


def test_partitions_constraints_and_order():
    # p(m, k), the number of partitions of m into k parts, by its recurrence:
    # a smallest part 1 removed, or every part cut by 1
    count = {}
    for m in range(21):
        for k in range(m + 2):
            if k == 0:
                count[m, k] = 1 if m == 0 else 0
            else:
                count[m, k] = count.get((m - 1, k - 1), 0) + count.get((m - k, k), 0)
            found = partitions(m, k)
            assert len(found) == count[m, k], (m, k)
            vectors = [tuple(p.get(i, 0) for i in range(1, m + 1)) for p in found]
            # strictly ascending in (n_1, n_2, ...): in order, no duplicates
            assert vectors == sorted(set(vectors)), (m, k)
            for p in found:
                assert list(p) == sorted(p) and all(n > 0 for n in p.values())
                assert sum(p.values()) == k
                assert sum(i * n for i, n in p.items()) == m


def test_partitions_rejects_negative():
    with pytest.raises(ValueError):
        partitions(-1, 2)
    with pytest.raises(ValueError):
        partitions(2, -1)


# ---------------------------------------------------------------- multinomial

def partition_multinomial(j, counts):
    # the coefficient of the partition {size: count} in B_{j,l}, l its block count
    [coeff] = [c for c, e in partial_bell_terms(j, sum(counts.values())) if e == counts]
    return coeff


def test_partition_multinomial_frozen():
    assert partition_multinomial(3, {1: 1, 2: 1}) == 3
    assert partition_multinomial(4, {1: 2, 2: 1}) == 6
    assert partition_multinomial(6, {1: 1, 2: 1, 3: 1}) == 60
    assert partition_multinomial(6, {2: 3}) == 15
    assert partition_multinomial(6, {1: 2, 4: 1}) == 15


def test_partition_multinomial_counts_set_partitions():
    # multiplicity of each block-size profile among all set partitions, as
    # (size, count) pairs in ascending size: the terms of B_{j,l}, one per
    # profile with l blocks
    for j in range(1, 8):
        counted = Counter(
            tuple(sorted(Counter(len(block) for block in part).items()))
            for part in iter_set_partitions(list(range(j)))
        )
        for l in range(1, j + 1):
            terms = {tuple(e.items()): c for c, e in partial_bell_terms(j, l)}
            assert terms == {profile: n for profile, n in counted.items()
                             if sum(c for _, c in profile) == l}, (j, l)


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

