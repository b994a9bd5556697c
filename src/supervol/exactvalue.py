"""Exact-value helpers shared by every module: coercion to ``Fraction``,
scaling rows of rationals to integers, and the guard that keeps the
NamedTuple value types from tuple arithmetic.

This module imports only ``fractions`` and ``math``, so the verbs whose
modules need nothing else (``volume``, ``qvolume``, ``chain``, ...) never
load the linear algebra of ``exactnum``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point input rejected: results must be exact")
    return Fraction(x)


def integer_scaled(rows) -> tuple[list[list[int]], int]:
    """Rows of exact values times d, as ints, and d: the lcm of the
    denominators of all their entries (1 when there are none)."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def reject_tuple_arithmetic(self, other):
    """Raise TypeError.  Bound as the ``+`` and ``*`` operators that the
    NamedTuple value types do not define themselves, so that these never
    fall back to tuple concatenation or repetition."""
    raise TypeError(f"unsupported operand types for arithmetic: "
                    f"{type(self).__name__!r} and {type(other).__name__!r}")
