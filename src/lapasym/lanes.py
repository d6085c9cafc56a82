"""Float64 lanes: one value per direction of a batch, as numpy arrays.

This module loads numpy; :mod:`.jets` imports it when its ``Lanes`` is
first read, so a call with no batch of directions runs without numpy.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Any

import numpy as np

__all__ = ["Lanes"]


class Lanes(np.ndarray):
    """A float64 array of per-direction values, one lane per direction.

    It computes as its lanes would one by one, as Python floats: a
    Fraction it meets counts as the Fraction's float (numpy alone would
    make an object array of it), exp, log, sin, cos and powers go lane by
    lane through :mod:`math` and Python's float power, and what it
    computes is again lanes.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(_unlaned(x) for x in inputs)
        lane = _BY_LANE.get(ufunc)
        if lane is not None and method == "__call__" and not kwargs:
            arrays = np.broadcast_arrays(*inputs)
            values = [lane(*args) for args in zip(*(a.tolist() for a in arrays))]
            return np.array(values, dtype=float).reshape(arrays[0].shape).view(Lanes)
        if "out" in kwargs:
            kwargs["out"] = tuple(_unlaned(x) for x in kwargs["out"])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        return result.view(Lanes) if isinstance(result, np.ndarray) else result

    # ndarray's ** turns some exponents into square, sqrt or reciprocal;
    # its reflected ** is np.power already
    def __pow__(self, exponent):
        return np.power(self, exponent)


# numpy's vectorized loops for these round some elements differently from
# math and from Python's float power
_BY_LANE = {np.exp: math.exp, np.log: math.log, np.sin: math.sin, np.cos: math.cos,
            np.power: operator.pow}


def _unlaned(value: Any) -> Any:
    if isinstance(value, Lanes):
        return value.view(np.ndarray)
    return float(value) if isinstance(value, Fraction) else value
