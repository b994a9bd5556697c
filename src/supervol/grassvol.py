"""Exact symbolic volumes of complex supergrassmannians.

The invariant volume of Gr(r|s, m|n) vanishes exactly when the
superdimension (r-s)((m-r)-(n-s)) is negative; otherwise it equals a
signed binomial times a power of 2pi times an opaque classical volume
atom V(a, b) (the invariant volume of the ordinary Grassmannian of
a-planes in b-space, never evaluated numerically).  2pi is a formal
symbol throughout, so every result is exact and equality is structural.

Atom rewriting uses only V(0, b) = V(b, b) = 1 and the complement
duality V(a, b) = V(b-a, b); classical volumes are otherwise left
untouched, since no normalization for them is ever needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exactnum import as_fraction, reject_tuple_arithmetic


class SuperDim(NamedTuple):
    even: int
    odd: int


class _GrassFields(NamedTuple):
    r: int
    s: int
    m: int
    n: int


class GrassSpec(_GrassFields):
    """Parameters of Gr(r|s, m|n): (r|s)-dimensional subspaces of C^(m|n)."""

    __slots__ = ()

    def __new__(cls, r: int, s: int, m: int, n: int):
        if not (0 <= r <= m and 0 <= s <= n):
            raise ValueError("require 0 <= r <= m and 0 <= s <= n")
        return super().__new__(cls, r, s, m, n)

    @classmethod
    def _make(cls, iterable) -> "GrassSpec":
        # the inherited _make, behind _replace, skips __new__'s check
        return cls(*iterable)

    def complement(self) -> "GrassSpec":
        return GrassSpec(self.m - self.r, self.n - self.s, self.m, self.n)

    def swapped(self) -> "GrassSpec":
        return GrassSpec(self.s, self.r, self.n, self.m)


def dims(spec: GrassSpec) -> SuperDim:
    """Even and odd dimensions of the supergrassmannian."""
    r, s, m, n = spec.r, spec.s, spec.m, spec.n
    return SuperDim(r * (m - r) + s * (n - s), r * (n - s) + s * (m - r))


def sdim(spec: GrassSpec) -> int:
    """Superdimension (even minus odd); may be negative."""
    r, s, m, n = spec.r, spec.s, spec.m, spec.n
    return (r - s) * ((m - r) - (n - s))


def two_pi_exponent(spec: GrassSpec) -> int:
    """Exponent of the 2pi prefactor of a nonzero volume: the odd dimension."""
    return dims(spec).odd


def _canonical_atoms(raw: dict[tuple[int, int], int]) -> tuple[tuple[int, int, int], ...]:
    merged: dict[tuple[int, int], int] = {}
    for (a, b), exp in raw.items():
        if exp == 0 or a == 0 or a == b:
            continue
        if a > b - a:
            a = b - a
        if not (1 <= a and 2 * a <= b):
            raise ValueError(f"invalid volume atom V({a},{b})")
        merged[(a, b)] = merged.get((a, b), 0) + exp
    return tuple(
        (a, b, e) for (a, b), e in sorted(merged.items()) if e != 0
    )


class VolumeExpr(NamedTuple):
    """sign*rational x (2pi)^k x product of classical atoms V(a,b)^e.

    Always stored in canonical form; the zero expression has no power and
    no atoms, so equality testing is structural.
    """

    coeff: Fraction
    two_pi_power: int
    atoms: tuple[tuple[int, int, int], ...]

    __add__ = __radd__ = __rmul__ = reject_tuple_arithmetic

    @staticmethod
    def make(coeff, two_pi_power: int = 0, atoms=()) -> "VolumeExpr":
        coeff = as_fraction(coeff)
        if coeff == 0:
            return VolumeExpr(Fraction(0), 0, ())
        raw: dict[tuple[int, int], int] = {}
        for entry in atoms:
            a, b, e = entry
            raw[(a, b)] = raw.get((a, b), 0) + e
        return VolumeExpr(coeff, two_pi_power, _canonical_atoms(raw))

    @staticmethod
    def zero() -> "VolumeExpr":
        return VolumeExpr(Fraction(0), 0, ())

    @staticmethod
    def atom(a: int, b: int) -> "VolumeExpr":
        if not 0 <= a <= b:
            raise ValueError("atom requires 0 <= a <= b")
        return VolumeExpr.make(1, 0, ((a, b, 1),))

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other: "VolumeExpr") -> "VolumeExpr":
        if self.is_zero() or other.is_zero():
            return VolumeExpr.zero()
        return VolumeExpr.make(
            self.coeff * other.coeff,
            self.two_pi_power + other.two_pi_power,
            self.atoms + other.atoms,
        )

    def __truediv__(self, other: "VolumeExpr") -> "VolumeExpr":
        if other.is_zero():
            raise ZeroDivisionError("division by zero volume")
        if self.is_zero():
            return VolumeExpr.zero()
        inverted = tuple((a, b, -e) for a, b, e in other.atoms)
        return VolumeExpr.make(
            self.coeff / other.coeff,
            self.two_pi_power - other.two_pi_power,
            self.atoms + inverted,
        )

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = [str(self.coeff)]
        if self.two_pi_power:
            parts.append("(2π)" + (f"^{self.two_pi_power}"
                                        if self.two_pi_power != 1 else ""))
        for a, b, e in self.atoms:
            parts.append(f"V({a},{b})" + (f"^{e}" if e != 1 else ""))
        return "·".join(parts)

    def to_payload(self) -> dict:
        return {
            "coeff": str(self.coeff),
            "two_pi_power": self.two_pi_power,
            "atoms": [{"a": a, "b": b, "exp": e} for a, b, e in self.atoms],
        }

    @staticmethod
    def from_payload(payload: dict) -> "VolumeExpr":
        return VolumeExpr.make(
            Fraction(payload["coeff"]),
            payload["two_pi_power"],
            tuple((d["a"], d["b"], d["exp"]) for d in payload["atoms"]),
        )


def volume(spec: GrassSpec) -> VolumeExpr:
    """Invariant volume of Gr(r|s, m|n), exactly.

    Zero when the superdimension is negative.  Otherwise, after reducing
    to r >= s (and m >= n when r = s) by the exact symmetry
    V(r|s,m|n) = V(s|r,n|m), the value is
    (-1)^(s(m+n+r+s)) * binom(n,s) * (2pi)^(odd dim) * V(r-s, m-n).
    The normalization matters: the closed formula presumes m >= n, which
    r > s already forces but r = s does not.
    """
    if sdim(spec) < 0:
        return VolumeExpr.zero()
    if spec.r < spec.s or (spec.r == spec.s and spec.m < spec.n):
        spec = spec.swapped()
    r, s, m, n = spec.r, spec.s, spec.m, spec.n
    sign = -1 if (s * (m + n + r + s)) % 2 else 1
    coeff = Fraction(sign * math.comb(n, s))
    atoms = ((r - s, m - n, 1),) if r > s else ()
    return VolumeExpr.make(coeff, two_pi_exponent(spec), atoms)


def _equal_rank_volume(r: int, n: int) -> VolumeExpr:
    """V(r|r, n|n) = binom(n,r) (2pi)^(2r(n-r))."""
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    return VolumeExpr.make(math.comb(n, r), 2 * r * (n - r))


def _full_odd_rank_volume(k: int, big: int) -> VolumeExpr:
    """V(k|k, M|k) = (-1)^(k(M-k)) (2pi)^(k(M-k)) for M >= k.

    Obtained from the one-even-block volume (2pi)^(k(M-k)) through the
    complement duality sign.
    """
    if not 0 <= k <= big:
        raise ValueError("require 0 <= k <= M")
    e = k * (big - k)
    return VolumeExpr.make((-1) ** (e % 2), e)


def volume_via_fibration(spec: GrassSpec) -> VolumeExpr:
    """Volume through the five-factor fibration identity (independent route).

    Requires nonnegative superdimension and r >= s.  The factors are
    expanded through the equal-rank and full-odd-rank closed forms, so
    this shares no code path with :func:`volume`; agreement of the two is
    a cross-formula consistency check.
    """
    if sdim(spec) < 0 or spec.r < spec.s:
        raise ValueError("requires sdim >= 0 and r >= s")
    if spec.r == spec.s and spec.m < spec.n:
        spec = spec.swapped()
    r, s, m, n = spec.r, spec.s, spec.m, spec.n
    sign = VolumeExpr.make((-1) ** (((r - s) * (n - s)) % 2))
    numerator = (
        sign
        * _equal_rank_volume(s, n)
        * _full_odd_rank_volume(n, m)
        * VolumeExpr.atom(r - s, m - n)
    )
    denominator = (
        _full_odd_rank_volume(s, r)
        * _full_odd_rank_volume(n - s, m - r)
    )
    return numerator / denominator


def duality_sign(spec: GrassSpec) -> int:
    """Sign relating the volume to that of the complementary grassmannian."""
    r, s, m, n = spec.r, spec.s, spec.m, spec.n
    return -1 if (r * (n - s) + s * (m - r)) % 2 else 1


def check_complement_duality(spec: GrassSpec) -> bool:
    """Verify V(r|s,m|n) = sign * V(m-r|n-s,m|n) on canonical expressions."""
    lhs = volume(spec)
    rhs = VolumeExpr.make(duality_sign(spec)) * volume(spec.complement())
    return lhs == rhs


def check_flag_identity(a: int, b: int, c: int) -> bool:
    """Verify V(b|a,c|a) = V(b-a,c-a) V(a|a,c|a) / V(a|a,b|a) for a<=b<=c."""
    if not 0 <= a <= b <= c:
        raise ValueError("require 0 <= a <= b <= c")
    lhs = volume(GrassSpec(b, a, c, a))
    rhs = (
        volume(GrassSpec(b - a, 0, c - a, 0))
        * volume(GrassSpec(a, a, c, a))
        / volume(GrassSpec(a, a, b, a))
    )
    return lhs == rhs
