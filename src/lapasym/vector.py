"""Float lanes as a pure-Python vector: one float per direction of a batch.

The circle rule's directions (group dimension 2) travel through the
series route as a :class:`Vector`, so that an ``expand`` there runs
without numpy.  :mod:`.models` imports this module when it builds such a
batch, and :func:`~lapasym.jets.is_vector` recognises one without
importing it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import repeat
from typing import Any, Callable, Iterable

__all__ = ["Vector"]


def _operand(value: Any, count: int) -> Iterable | None:
    # the lanes value meets: a vector's own, or a number's, repeated count
    # times; None for anything else
    if isinstance(value, Vector):
        if len(value) != count:
            raise ValueError(f"vectors of {count} and {len(value)} lanes")
        return value
    if isinstance(value, (int, float)):
        return repeat(value, count)
    if isinstance(value, Fraction):
        return repeat(float(value), count)
    return None


def _lanewise(op: Callable[[Any, Any], Any]) -> tuple[Callable, Callable]:
    # self op other and its reflection, lane by lane
    def forward(self: Vector, other: Any) -> Any:
        lanes = _operand(other, len(self))
        return NotImplemented if lanes is None else Vector(map(op, self, lanes))

    def reflected(self: Vector, other: Any) -> Any:
        lanes = _operand(other, len(self))
        return NotImplemented if lanes is None else Vector(map(op, lanes, self))

    return forward, reflected


class Vector(tuple):
    """A tuple of floats, one lane per direction, that computes lane by lane.

    ``+``, ``-``, ``*``, ``/``, ``**`` and negation act on the lanes, of
    two vectors of one length or of a vector and a number that every
    lane shares, and give a vector.  Each lane is the Python float that
    its direction would give on its own: a Fraction counts as its float,
    a division by a zero lane raises :class:`ZeroDivisionError`, and a
    power goes through Python's float power.  Any other operand (a
    truncated series, say) computes the result itself.  The elementary
    functions of :mod:`.jets` map a vector lane by lane through
    :mod:`math`.
    """

    __slots__ = ()

    __add__, __radd__ = _lanewise(operator.add)
    __sub__, __rsub__ = _lanewise(operator.sub)
    __mul__, __rmul__ = _lanewise(operator.mul)
    __truediv__, __rtruediv__ = _lanewise(operator.truediv)
    __pow__, __rpow__ = _lanewise(operator.pow)

    def __neg__(self) -> Vector:
        return Vector(map(operator.neg, self))
