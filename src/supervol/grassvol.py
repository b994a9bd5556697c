"""Exact symbolic volumes of complex supergrassmannians.

The invariant volume of Gr(r|s, m|n) vanishes exactly when the
superdimension (r-s)((m-r)-(n-s)) is negative; otherwise it equals a
signed binomial times a power of 2pi times an opaque classical volume
atom V(a, b) (the invariant volume of the ordinary Grassmannian of
a-planes in b-space, never evaluated numerically).  2pi is a formal
symbol throughout, so every result is exact.

Products of atoms have one normal form.  With u(k) = vol U(k) and
u(0) = 1, V(a, b) = u(b) / (u(a) u(b-a)) (Macdonald 1980), so a product
of atoms is a monomial in the u(k), and two products are equal exactly
when their monomials are.  ``_canonical_atoms`` reads each monomial back
as one product of atoms, so equal values compare equal; the u(k)
themselves are never evaluated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exactvalue import as_fraction, reject_tuple_arithmetic


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
        if not (type(r) is type(s) is type(m) is type(n) is int):
            raise TypeError("GrassSpec fields must be ints")
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


def _canonical_atoms(atoms) -> tuple[tuple[int, int, int], ...]:
    """The normal form of a product of atoms ``(a, b, e)``, each V(a, b)^e.

    Each atom is validated, and V(a, b)^e = u(b)^e / (u(a) u(b-a))^e adds
    e to the exponent of u(b) and -e to those of u(a) and u(b-a); with
    u(0) = 1, V(0, b) = V(b, b) = 1 adds nothing.  The atoms are then read
    back from the top: b is the largest k with a nonzero exponent e, and a
    the least k whose exponent has the other sign, which exists because
    every atom has weight b - a - (b-a) = 0; V(min(a, b-a), b)^e is
    emitted and subtracted.  Each step clears u(b) and changes only
    smaller k, so the result, sorted, depends only on the monomial and
    has 2a <= b.
    """
    u: dict[int, int] = {}
    for a, b, e in atoms:
        if not (type(a) is type(b) is type(e) is int):
            raise TypeError(f"volume atom ({a!r}, {b!r}, {e!r}) must hold ints")
        if not 0 <= a <= b:
            raise ValueError(f"invalid volume atom V({a},{b})")
        if e and 0 < a < b:
            u[b] = u.get(b, 0) + e
            u[a] = u.get(a, 0) - e
            u[b - a] = u.get(b - a, 0) - e
    out = []
    while any(u.values()):
        b = max(k for k, x in u.items() if x)
        e = u.pop(b)
        a = min(k for k, x in u.items() if x * e < 0)
        out.append((min(a, b - a), b, e))
        u[a] += e
        u[b - a] = u.get(b - a, 0) + e
    return tuple(sorted(out))


class VolumeExpr(NamedTuple):
    """sign*rational x (2pi)^k x product of classical atoms V(a,b)^e.

    The atoms are stored in the normal form of ``_canonical_atoms``: the
    product of atoms is a monomial in the u(k) = vol U(k), read back as
    atoms with 2a <= b, so two expressions are equal exactly when their
    coefficients, powers of 2pi and u-monomials are; V(1,2)V(2,4) and
    V(1,3)V(1,4), both u(4)/(u(1)^2 u(2)), are stored alike.  The power of
    2pi and every atom field are ints.  The zero expression has no power
    and no atoms.
    """

    coeff: Fraction
    two_pi_power: int
    atoms: tuple[tuple[int, int, int], ...]

    __add__ = __radd__ = __rmul__ = reject_tuple_arithmetic

    @staticmethod
    def make(coeff, two_pi_power: int = 0, atoms=()) -> "VolumeExpr":
        coeff = as_fraction(coeff)
        if type(two_pi_power) is not int:
            raise TypeError(f"power of 2pi must be an int, not {two_pi_power!r}")
        atoms = _canonical_atoms(atoms)
        if coeff == 0:
            return VolumeExpr(coeff, 0, ())
        return VolumeExpr(coeff, two_pi_power, atoms)

    @staticmethod
    def zero() -> "VolumeExpr":
        return VolumeExpr.make(0)

    @staticmethod
    def atom(a: int, b: int) -> "VolumeExpr":
        return VolumeExpr.make(1, 0, ((a, b, 1),))

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other: "VolumeExpr") -> "VolumeExpr":
        # make returns the zero expression for a zero coefficient
        return VolumeExpr.make(
            self.coeff * other.coeff,
            self.two_pi_power + other.two_pi_power,
            self.atoms + other.atoms,
        )

    def __truediv__(self, other: "VolumeExpr") -> "VolumeExpr":
        if other.is_zero():
            raise ZeroDivisionError("division by zero volume")
        return VolumeExpr.make(
            self.coeff / other.coeff,
            self.two_pi_power - other.two_pi_power,
            self.atoms + tuple((a, b, -e) for a, b, e in other.atoms),
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
    return VolumeExpr.make(sign * math.comb(n, s), dims(spec).odd, ((r - s, m - n, 1),))


def _equal_rank_volume(r: int, n: int) -> VolumeExpr:
    """V(r|r, n|n) = binom(n,r) (2pi)^(2r(n-r)) for 0 <= r <= n."""
    return VolumeExpr.make(math.comb(n, r), 2 * r * (n - r))


def _full_odd_rank_volume(k: int, big: int) -> VolumeExpr:
    """V(k|k, M|k) = (-1)^(k(M-k)) (2pi)^(k(M-k)) for 0 <= k <= M.

    Obtained from the one-even-block volume (2pi)^(k(M-k)) through the
    complement duality sign.
    """
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
    # now s <= r, s <= n <= m and n - s <= m - r: every factor is in range
    r, s, m, n = spec.r, spec.s, spec.m, spec.n
    numerator = (
        VolumeExpr.make((-1) ** (((r - s) * (n - s)) % 2))
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
