"""Exact-value helpers shared by every module: coercion to ``Fraction``,
scaling rows of rationals to integers, and the guard that keeps the
NamedTuple value types from tuple arithmetic.

Tuples that a call makes and drops are built from lists, never from
generators, here and in the kernels: CPython allocates a tuple built from
an iterator at a guessed size and then resizes it, and a freed tuple is
parked on the free list of its final size, where the next such build does
not take it, so memory grows from call to call until that list is full.
A list has its length when the tuple is made, so the tuple has its final
size from the start.

This module imports only ``fractions`` and ``math``, so the verbs whose
modules need nothing else (``volume``, ``qvolume``, ``chain``, ...) never
load the linear algebra of ``exactnum``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction.  A float
    or a bool is refused with TypeError: a float is not exact, and a bool
    is not a number."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point input rejected: results must be exact")
    if isinstance(x, bool):
        raise TypeError(f"boolean input rejected: {x!r} is not a number")
    return Fraction(x)


def integer_scaled(rows) -> tuple[list[list[int]], int]:
    """Rows of ints and Fractions times d, as ints, and d: the lcm of the
    denominators of all their entries (1 when there are none)."""
    return scaled_ratios([[x.as_integer_ratio() for x in row] for row in rows])


def scaled_ratios(ratios) -> tuple[list[list[int]], int]:
    """Rows of pairs (p, q), each the ratio p / q with q > 0, as the ints
    p * (d // q), and d: the lcm of all the q (1 when there are none)."""
    d = lcm(*[q for row in ratios for _, q in row])
    return [[p * (d // q) for p, q in row] for row in ratios], d


def reject_tuple_arithmetic(self, other):
    """Raise TypeError.  Bound as the ``+`` and ``*`` operators that the
    NamedTuple value types do not define themselves, so that these never
    fall back to tuple concatenation or repetition."""
    raise TypeError(f"unsupported operand types for arithmetic: "
                    f"{type(self).__name__!r} and {type(other).__name__!r}")
