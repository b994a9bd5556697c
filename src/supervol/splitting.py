"""Splitting-subgroup predicates and certified subgroup chains.

A Levi subgroup GL(r|s) x GL(m-r|n-s) splits inside GL(m|n) exactly when
the superdimension of the corresponding supergrassmannian is nonnegative;
Q(r) x Q(n-r) splits inside Q(n) exactly when r(n-r) is even.  Chains of
such certified inclusions witness that the bottom subgroup splits in the
top group (splitting composes along inclusions), and every step carries
recomputable evidence.

``minimal_chain`` produces the standard chain down to the conjecturally
minimal splitting subgroup: SL(1|1)^min(m,n) for GL(m|n), and Q(2)^d
(times Q(1) for odd n) for Q(n).
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from . import grassvol
from .exactvalue import reject_tuple_arithmetic

RULE_LEVI_GL = "LEVI_GL"
RULE_LEVI_Q = "LEVI_Q"
RULE_ODD_PARTS_EQUAL = "ODD_PARTS_EQUAL"
RULE_FACTOR_SPLIT = "FACTOR_SPLIT"

Atom = tuple  # ("GL", m, n) | ("SL", m, n) | ("Q", n)


def _atom_is_trivial(atom: Atom) -> bool:
    kind = atom[0]
    if kind in ("GL", "SL"):
        return atom[1] == 0 and atom[2] == 0
    return atom[1] == 0


def _atom_label(atom: Atom) -> str:
    kind = atom[0]
    if kind in ("GL", "SL"):
        return f"{kind}({atom[1]}|{atom[2]})"
    return f"Q({atom[1]})"


def _atom_dims(atom: Atom) -> tuple[int, int]:
    kind = atom[0]
    if kind == "GL":
        m, n = atom[1], atom[2]
        return m * m + n * n, 2 * m * n
    if kind == "SL":
        m, n = atom[1], atom[2]
        return m * m + n * n - (1 if (m, n) != (0, 0) else 0), 2 * m * n
    n = atom[1]
    return n * n, n * n


class GroupDesc(NamedTuple):
    """A finite product of GL(m|n), SL(m|n), and Q(n) factors.

    Trivial factors are dropped and nested products flattened, so equal
    groups compare equal; the empty product is the trivial group.
    """

    factors: tuple[Atom, ...]

    def __mul__(self, other: "GroupDesc") -> "GroupDesc":
        return GroupDesc(self.factors + other.factors)

    __add__ = __radd__ = __rmul__ = reject_tuple_arithmetic

    @property
    def even_dim(self) -> int:
        return sum(_atom_dims(a)[0] for a in self.factors)

    @property
    def odd_dim(self) -> int:
        return sum(_atom_dims(a)[1] for a in self.factors)

    def label(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for atom in self.factors:
            if parts and parts[-1][0] == atom:
                parts[-1][1] += 1
            else:
                parts.append([atom, 1])
        return "×".join(
            _atom_label(a) + (f"^{k}" if k > 1 else "") for a, k in parts
        )


def _group(*atoms: Atom) -> GroupDesc:
    return GroupDesc(tuple(a for a in atoms if not _atom_is_trivial(a)))


def GL(m: int, n: int) -> GroupDesc:
    if m < 0 or n < 0:
        raise ValueError("negative parameters")
    return _group(("GL", m, n))


def SL(m: int, n: int) -> GroupDesc:
    if m < 0 or n < 0:
        raise ValueError("negative parameters")
    return _group(("SL", m, n))


def Q(n: int) -> GroupDesc:
    if n < 0:
        raise ValueError("negative parameters")
    return _group(("Q", n))


def trivial() -> GroupDesc:
    return GroupDesc(())


def power(g: GroupDesc, k: int) -> GroupDesc:
    return GroupDesc(g.factors * k)


class SplittingCheck(NamedTuple):
    ok: bool
    evidence: int


def is_splitting_levi_gl(r: int, s: int, m: int, n: int) -> SplittingCheck:
    """Levi criterion for GL: splitting iff the grassmannian superdimension
    (r-s)((m-r)-(n-s)) is nonnegative; the sdim is returned as evidence."""
    value = grassvol.sdim(grassvol.GrassSpec(r, s, m, n))
    return SplittingCheck(value >= 0, value)


def is_splitting_levi_q(r: int, n: int) -> SplittingCheck:
    """Levi criterion for Q: splitting iff r(n-r) is even."""
    if not 0 <= r <= n:
        raise ValueError("require 0 <= r <= n")
    value = r * (n - r)
    return SplittingCheck(value % 2 == 0, value)


def sdim_necessity(g_dims: tuple[int, int], k_dims: tuple[int, int]) -> bool:
    """Necessary condition for splitting: sdim of the quotient >= 0,
    i.e. (g_even - k_even) - (g_odd - k_odd) >= 0."""
    (ge, go), (ke, ko) = g_dims, k_dims
    if ke > ge or ko > go:
        raise ValueError("subgroup dimensions exceed the group's")
    return (ge - ke) - (go - ko) >= 0


class ChainStep(NamedTuple):
    """One certified inclusion sub < sup with its rule and witness data."""

    sub: GroupDesc
    sup: GroupDesc
    rule: str
    evidence: dict

    def validate(self) -> bool:
        """Recompute the witness and recheck the rule and bookkeeping."""
        if self.rule == RULE_LEVI_GL:
            r, s = self.evidence["r"], self.evidence["s"]
            m, n = self.evidence["m"], self.evidence["n"]
            check = is_splitting_levi_gl(r, s, m, n)
            return (
                check.ok
                and check.evidence == self.evidence["sdim"]
                and _replaces_factor(
                    self.sup, self.sub, ("GL", m, n),
                    (("GL", r, s), ("GL", m - r, n - s)),
                )
            )
        if self.rule == RULE_LEVI_Q:
            r, n = self.evidence["r"], self.evidence["n"]
            check = is_splitting_levi_q(r, n)
            return (
                check.ok
                and check.evidence == self.evidence["parity_product"]
                and _replaces_factor(
                    self.sup, self.sub, ("Q", n), (("Q", r), ("Q", n - r)),
                )
            )
        if self.rule == RULE_ODD_PARTS_EQUAL:
            return (
                _removed_factors(self.sup, self.sub, _factor_contains) is not None
                and self.sub.odd_dim == self.sup.odd_dim
                and self.evidence["odd_dim"] == self.sub.odd_dim
            )
        if self.rule == RULE_FACTOR_SPLIT:
            removed = _removed_factors(self.sup, self.sub, operator.eq)
            if removed is None:
                return False
            return (
                all(_atom_dims(a)[1] == 0 for a in removed)
                and list(self.evidence["removed"]) == [_atom_label(a) for a in removed]
            )
        return False


def _replaces_factor(sup: GroupDesc, sub: GroupDesc, old: Atom,
                     new: tuple[Atom, ...]) -> bool:
    """Whether sub arises from sup by replacing one ``old`` factor by ``new``."""
    for i, atom in enumerate(sup.factors):
        if atom == old:
            candidate = sup.factors[:i] + new + sup.factors[i + 1:]
            if _group(*candidate) == sub:
                return True
    return False


def _factor_contains(big: Atom, small: Atom) -> bool:
    """Whether ``small`` is ``big`` or SL(m|n) inside ``big`` = GL(m|n)."""
    return small == big or (big[0] == "GL" and small == ("SL", *big[1:]))


def _removed_factors(sup: GroupDesc, sub: GroupDesc, contains):
    """Factors of sup left over (each cut to 1) after matching sub, in order, to a
    subsequence of sup with ``contains(sup_factor, sub_factor)``; None if none."""
    removed = []
    sub_idx = 0
    for atom in sup.factors:
        if sub_idx < len(sub.factors) and contains(atom, sub.factors[sub_idx]):
            sub_idx += 1
        else:
            removed.append(atom)
    return removed if sub_idx == len(sub.factors) else None


class SubgroupChain(NamedTuple):
    """A chain bottom = H_0 < H_1 < ... < H_k = top of certified steps."""

    top: GroupDesc
    steps: tuple[ChainStep, ...]

    @property
    def bottom(self) -> GroupDesc:
        return self.steps[0].sub if self.steps else self.top

    def groups(self) -> list[GroupDesc]:
        if not self.steps:
            return [self.top]
        return [self.steps[0].sub] + [step.sup for step in self.steps]

    def validate(self) -> bool:
        return (self.groups()[-1] == self.top
                and all(prev.sup == nxt.sub for prev, nxt in zip(self.steps, self.steps[1:]))
                and all(step.validate() for step in self.steps))

    def to_payload(self) -> dict:
        return {
            "top": self.top.label(),
            "bottom": self.bottom.label(),
            "groups": [g.label() for g in self.groups()],
            "steps": [
                {
                    "sub": step.sub.label(),
                    "sup": step.sup.label(),
                    "rule": step.rule,
                    "evidence": step.evidence,
                }
                for step in self.steps
            ],
        }


def _gl_chain(m: int, n: int) -> SubgroupChain:
    top = GL(m, n)
    d = min(m, n)
    if d == 0:
        if (m, n) == (0, 0):
            return SubgroupChain(top, ())
        step = ChainStep(trivial(), top, RULE_ODD_PARTS_EQUAL, {"odd_dim": 0})
        return SubgroupChain(top, (step,))
    cur_m, cur_n, peeled = m, n, 0
    down: list[ChainStep] = []
    while min(cur_m, cur_n) >= 1 and (cur_m, cur_n) != (1, 1):
        sup = power(GL(1, 1), peeled) * GL(cur_m, cur_n)
        sub = power(GL(1, 1), peeled + 1) * GL(cur_m - 1, cur_n - 1)
        check = is_splitting_levi_gl(1, 1, cur_m, cur_n)
        down.append(ChainStep(sub, sup, RULE_LEVI_GL, {
            "r": 1, "s": 1, "m": cur_m, "n": cur_n, "sdim": check.evidence,
        }))
        cur_m, cur_n, peeled = cur_m - 1, cur_n - 1, peeled + 1
    if (cur_m, cur_n) != (1, 1) and (cur_m, cur_n) != (0, 0):
        leftover = GL(cur_m, cur_n)
        down.append(ChainStep(
            power(GL(1, 1), d), power(GL(1, 1), d) * leftover,
            RULE_FACTOR_SPLIT, {"removed": [leftover.label()]},
        ))
    down.append(ChainStep(
        power(SL(1, 1), d), power(GL(1, 1), d),
        RULE_ODD_PARTS_EQUAL, {"odd_dim": 2 * d},
    ))
    return SubgroupChain(top, tuple(reversed(down)))


def _q_chain(n: int) -> SubgroupChain:
    top = Q(n)
    down: list[ChainStep] = []
    cur, peeled = n, 0
    while cur >= 3:
        sup = power(Q(2), peeled) * Q(cur)
        sub = power(Q(2), peeled + 1) * Q(cur - 2)
        check = is_splitting_levi_q(2, cur)
        down.append(ChainStep(sub, sup, RULE_LEVI_Q, {
            "r": 2, "n": cur, "parity_product": check.evidence,
        }))
        cur, peeled = cur - 2, peeled + 1
    return SubgroupChain(top, tuple(reversed(down)))


def minimal_chain(group: GroupDesc) -> SubgroupChain:
    """Certified chain from the conjecturally minimal splitting subgroup
    up to the given GL(m|n) or Q(n); every step revalidates on demand."""
    if len(group.factors) == 1 and group.factors[0][0] == "GL":
        _, m, n = group.factors[0]
        return _gl_chain(m, n)
    if len(group.factors) == 1 and group.factors[0][0] == "Q":
        return _q_chain(group.factors[0][1])
    if not group.factors:
        return SubgroupChain(group, ())
    raise ValueError(f"unsupported family for chain construction: {group.label()}")

