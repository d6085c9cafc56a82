"""Tests for the declarative expression compiler."""

import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from lapasym import jets
from lapasym.errors import DomainError
from lapasym.exprs import Positional, compile_expression
from lapasym.jets import TruncatedSeries
from lapasym.vector import Vector


def test_constant_nodes():
    assert compile_expression(3)(()) == 3
    assert compile_expression(2.5)(()) == 2.5
    assert compile_expression("7")(()) == 7
    value = compile_expression("1/3")(())
    assert value == Fraction(1, 3)
    assert isinstance(value, Fraction)


def test_pi_leaf():
    assert compile_expression("pi")(()) == math.pi


def test_symbol_lookup():
    fn = compile_expression(Positional("x0", ("x1", "x0")))
    assert fn((3, 4)) == 4
    # a bare tree binds no symbols
    with pytest.raises(DomainError, match="'x0'"):
        compile_expression("x0")


XY = ("x", "y")


def test_arithmetic_matches_direct_evaluation():
    # (x + 2) * (y - 1/2) / 3
    fn = compile_expression(Positional(["/", ["*", ["+", "x", 2], ["-", "y", "1/2"]], 3], XY))
    for x in (0, 1, Fraction(3, 4), -2.0):
        for y in (1, Fraction(1, 2), 5.5):
            assert fn((x, y)) == (x + 2) * (y - Fraction(1, 2)) / 3


def test_nary_sum_and_product():
    fn = compile_expression(["+", 1, 2, 3, 4])
    assert fn(()) == 10
    fn = compile_expression(["*", 2, 3, 4])
    assert fn(()) == 24


def test_unary_minus_and_neg():
    assert compile_expression(Positional(["-", "x"], XY))((7, 0)) == -7
    assert compile_expression(Positional(["neg", "x"], XY))((7, 0)) == -7


def test_pow_with_negative_exponent():
    fn = compile_expression(Positional(["pow", "x", -2], ("x",)))
    assert fn((Fraction(2),)) == Fraction(1, 4)


def test_elementary_functions():
    fn = compile_expression(Positional(["exp", ["neg", "x"]], ("x",)))
    assert fn((1.0,)) == pytest.approx(math.exp(-1.0))
    fn = compile_expression(Positional(["sin", "x"], ("x",)))
    assert fn((0.3,)) == pytest.approx(math.sin(0.3))
    fn = compile_expression(Positional(["sqrt", ["-", 1, ["pow", "x", 2]]], ("x",)))
    assert fn((0.6,)) == pytest.approx(0.8)


def test_series_arguments_flow_through():
    # jets dispatch: the same compiled tree must accept series inputs
    fn = compile_expression(Positional(["*", "w", ["exp", ["neg", ["pow", "x", 2]]]],
                                       ("x", "w")))
    x = TruncatedSeries.variable(0, 6)
    out = fn((x, 3))
    expected = 3 * TruncatedSeries([1, 0, -1, 0, Fraction(1, 2), 0, Fraction(-1, 6)])
    assert out.coefficients == expected.coefficients


def test_rejects_bad_trees():
    with pytest.raises(DomainError):
        compile_expression(True)
    with pytest.raises(DomainError):
        compile_expression([])
    with pytest.raises(DomainError):
        compile_expression(["frobnicate", 1])
    with pytest.raises(DomainError):
        compile_expression([["+", 1, 2], 3])
    with pytest.raises(DomainError):
        compile_expression(["+", 1])
    with pytest.raises(DomainError):
        compile_expression(["/", 1])
    with pytest.raises(DomainError):
        compile_expression(Positional(["pow", "x", "y"], XY))
    with pytest.raises(DomainError):
        compile_expression(Positional(["pow", "x", True], XY))
    with pytest.raises(DomainError):
        compile_expression("not a number or symbol!")
    with pytest.raises(DomainError):
        compile_expression(None)
    # a fold past the float range, named by its node
    with pytest.raises(DomainError, match=re.escape('["*", 1e+300, 1e+300]: the result inf')):
        compile_expression(["*", 1e300, 1e300])


def test_symbol_free_subtrees_fold_at_compile_time():
    # a symbol-free domain error surfaces when the expression compiles
    for node, culprit in ((["/", 1, 0], '["/", 1, 0]'), (["sqrt", -1], '["sqrt", -1]'),
                          (["+", "x", ["log", 0]], '["log", 0]')):
        with pytest.raises(DomainError, match=re.escape(culprit)):
            compile_expression(Positional(node, ("x",)))
    # a symbolic zero divisor still compiles and fails only where it is zero
    fn = compile_expression(Positional(["/", "1", "x0"], ("x0",)))
    assert fn((4,)) == Fraction(1, 4)
    with pytest.raises(DomainError, match=r'division by zero in \["/", "1", "x0"\]'):
        fn((0,))


def test_positional_binding():
    fn = compile_expression(Positional(["+", "x0", ["*", 2, "w0"]], ("x0", "w0")))
    assert fn((1, Fraction(1, 3))) == Fraction(5, 3)
    with pytest.raises(DomainError, match="'w1'"):
        compile_expression(Positional(["*", "w1", "x0"], ("x0", "w0")))


def test_unknown_symbol_refusal_lists_the_allowed_symbols():
    with pytest.raises(DomainError) as info:
        compile_expression(Positional(["*", "x0", ["pow", "w1", 2]], ("x0", "w0")))
    assert str(info.value) == "unknown symbol 'w1' in expression; allowed: x0, w0"
    with pytest.raises(DomainError) as info:
        compile_expression(["+", 1, "s"])
    assert str(info.value) == "unknown symbol 's' in expression; allowed: none"


# ------------------------------------------------------------ folding is exact

_LEAVES = ("1/3", "-2/7", "5/4", 2, -3, 0.3, -1.7, "pi", "x", "y")


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    op = rng.choice(("+", "*", "+", "*", "-", "/", "neg", "pow", "sin", "cos", "exp"))
    if op in ("+", "*"):
        return [op] + [_random_tree(rng, depth - 1) for _ in range(rng.randint(2, 4))]
    if op == "-":
        return [op] + [_random_tree(rng, depth - 1) for _ in range(rng.randint(1, 2))]
    if op == "/":
        return [op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1)]
    if op == "pow":
        return [op, _random_tree(rng, depth - 1), rng.randint(-2, 3)]
    return [op, _random_tree(rng, depth - 1)]


def _unfolded(node, env):
    """Reference: evaluate the tree as written, every constant at run time."""
    if isinstance(node, (int, float)):
        return node
    if isinstance(node, str):
        if node == "pi":
            return math.pi
        if node in env:
            return env[node]
        value = Fraction(node)
        return value.numerator if value.denominator == 1 else value
    op, *args = node
    if op == "pow":
        return _unfolded(args[0], env) ** args[1]
    values = [_unfolded(a, env) for a in args]
    if op in ("+", "*"):
        total = values[0]
        for v in values[1:]:
            total = total + v if op == "+" else total * v
        return total
    if op == "-":
        return -values[0] if len(values) == 1 else values[0] - values[1]
    if op == "/":
        return values[0] / values[1]
    if op == "neg":
        return -values[0]
    return {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp}[op](values[0])


_INPUTS = (
    {"x": 0.37, "y": -1.25},
    {"x": np.float64(0.37), "y": np.float64(2.5)},
    {"x": Fraction(3, 7), "y": Fraction(-5, 2)},
    {"x": TruncatedSeries([Fraction(1, 3), 1, Fraction(-1, 2), 0]),
     "y": TruncatedSeries([Fraction(2), Fraction(1, 5), 0, 1])},
    {"x": TruncatedSeries([0.4, 1.0, -0.5]), "y": TruncatedSeries([1.5, 0.25, 2.0])},
)


def test_folding_is_bit_identical_to_unfolded_evaluation():
    rng = random.Random(20081)
    compared = 0
    for _ in range(400):
        tree = _random_tree(rng, 4)
        try:
            fn = compile_expression(Positional(tree, XY))
        except DomainError:
            # only a symbol-free subtree that cannot be evaluated fails here
            with pytest.raises((ArithmeticError, ValueError)):
                _unfolded(tree, _INPUTS[0])
            continue
        for env in _INPUTS:
            values = (env["x"], env["y"])
            try:
                want = _unfolded(tree, env)
            except (ArithmeticError, ValueError):
                with pytest.raises((ArithmeticError, ValueError)):
                    fn(values)
                continue
            got = fn(values)
            assert type(got) is type(want), tree
            if isinstance(want, (float, np.floating)):
                # NaN from an overflowed series is compared by repr too
                assert repr(got) == repr(want), tree
            else:
                assert got == want, tree
                assert repr(got) == repr(want), tree
            compared += 1
    assert compared > 1000


def test_array_zero_divisor_names_the_expression():
    node = ["/", "x0", ["-", "x1", "1"]]
    fn = compile_expression(Positional(node, ("x0", "x1")))
    assert fn((np.array([1.0, 2.0]), np.array([2.0, 3.0]))).tolist() == [1.0, 1.0]
    with pytest.raises(DomainError, match=re.escape(f"division by zero in {json.dumps(node)}")):
        fn((np.array([1.0, 2.0]), np.array([2.0, 1.0])))
    # a symbol-dependent array over a folded zero
    over_zero = compile_expression(Positional(["/", "x0", ["-", "1", "1"]], ("x0",)))
    with pytest.raises(DomainError, match="division by zero"):
        over_zero((np.array([1.0, 2.0]),))
    # lanes and numpy scalars as divisors, as arrays are
    with pytest.raises(DomainError, match=re.escape(f"division by zero in {json.dumps(node)}")):
        fn((1.0, np.array([2.0, 1.0]).view(jets.Lanes)))
    with pytest.raises(DomainError, match=re.escape(f"division by zero in {json.dumps(node)}")):
        fn((1.0, np.float64(1.0)))
    assert fn((1.0, np.array([2.0, 3.0]).view(jets.Lanes))).tolist() == [1.0, 0.5]


def test_vectors_evaluate_like_their_lanes():
    # a rational constant meets a vector as its float, as it meets one
    # float lane, and a zero lane of a divisor is the expression's division
    # by zero, as an array's zero entry is
    xs = [0.1, 0.7, 1.3, -0.45]
    for node in (["*", "1/10", "x0"], ["-", "1/3", "x0"], ["/", "5/3", ["+", "x0", "1"]],
                 ["*", "1/3", ["sqrt", ["+", "1/5", ["*", "x0", "x0"]]]],
                 ["+", ["exp", ["*", "x0", "2/7"]], ["log", ["+", "2", "x0"]],
                  ["sin", "x0"], ["cos", ["pow", "x0", 3]]]):
        fn = compile_expression(Positional(node, ("x0",)))
        result = fn((Vector(xs),))
        assert isinstance(result, Vector) and list(result) == [fn((x,)) for x in xs], node
    node = ["/", "x0", ["-", "x1", "1"]]
    fn = compile_expression(Positional(node, ("x0", "x1")))
    with pytest.raises(DomainError, match=re.escape(f"division by zero in {json.dumps(node)}")):
        fn((1.0, Vector([2.0, 1.0])))


@pytest.mark.parametrize("node", [
    ["*", "1/10", "x0"],
    ["+", ["*", "x0", "1/3"], "2/7"],
    ["-", "1/3", "x0"],
    ["/", "x0", "3/7"],
    ["/", "5/3", ["+", "x0", "1"]],
    ["*", "1/3", ["sqrt", ["+", "1/5", ["*", "x0", "x0"]]]],
])
def test_arrays_evaluate_like_their_elements(node):
    # a rational constant meets an array as its float, as it meets one
    # float element: no object arrays, and the same bits elementwise
    fn = compile_expression(Positional(node, ("x0",)))
    xs = [0.1, 0.7, 1.3, -0.45]
    result = fn((np.array(xs),))
    assert isinstance(result, np.ndarray) and result.dtype == float
    assert result.tolist() == [float(fn((np.float64(x),))) for x in xs]
