"""Splitting-subgroup predicates and certified subgroup chains.

A Levi subgroup GL(r|s) x GL(m-r|n-s) splits inside GL(m|n) exactly when
the superdimension of the corresponding supergrassmannian is nonnegative;
Q(r) x Q(n-r) splits inside Q(n) exactly when r(n-r) is even.  Chains of
such certified inclusions witness that the bottom subgroup splits in the
top group (splitting composes along inclusions), and every step carries
recomputable evidence.

``minimal_chain`` produces the standard chain down to Q(2)^d (times Q(1)
for odd n) for Q(n), which is minimal up to conjugacy, and down to
SL(1|1)^min(m,n) for GL(m|n), whose minimality is conjectural.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from . import grassvol
from .exactvalue import reject_tuple_arithmetic

RULE_LEVI_GL = "LEVI_GL"
RULE_LEVI_Q = "LEVI_Q"
RULE_ODD_PARTS_EQUAL = "ODD_PARTS_EQUAL"
RULE_FACTOR_SPLIT = "FACTOR_SPLIT"

Atom = tuple  # ("GL", m, n) | ("SL", m, n) | ("Q", n): a kind and its parameters


def _atom_label(atom: Atom) -> str:
    kind, *params = atom
    return f"{kind}({'|'.join(map(str, params))})"


def _atom_dims(atom: Atom) -> tuple[int, int]:
    """(even, odd) dimension; SL drops the supertrace, one even dimension."""
    if atom[0] == "Q":
        return atom[1] ** 2, atom[1] ** 2
    kind, m, n = atom
    return m * m + n * n - (kind == "SL" and (m, n) != (0, 0)), 2 * m * n


class GroupDesc(NamedTuple):
    """A finite product of GL(m|n), SL(m|n), and Q(n) factors.

    Trivial factors are dropped and nested products flattened; the empty
    product is the trivial group.  Equality is ordered: GL(1|1)×GL(2|2)
    and GL(2|2)×GL(1|1) are the same group but compare unequal.
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
        runs = ((atom, len(list(run))) for atom, run in itertools.groupby(self.factors))
        return "×".join(_atom_label(a) + (f"^{k}" if k > 1 else "") for a, k in runs) or "1"


def _factor(kind: str, *params) -> GroupDesc:
    """The group of the one factor ``kind(params)``, whose parameters must be
    ints >= 0; the trivial group when they are all 0."""
    if not all(type(p) is int for p in params):
        raise TypeError(f"{kind} parameters must be ints, got {params!r}")
    if min(params) < 0:
        raise ValueError("negative parameters")
    return GroupDesc(((kind, *params),) if any(params) else ())


def GL(m: int, n: int) -> GroupDesc:
    return _factor("GL", m, n)


def SL(m: int, n: int) -> GroupDesc:
    return _factor("SL", m, n)


def Q(n: int) -> GroupDesc:
    return _factor("Q", n)


def trivial() -> GroupDesc:
    return GroupDesc(())


def power(g: GroupDesc, k: int) -> GroupDesc:
    if type(k) is not int:
        raise TypeError(f"the exponent must be an int, got {k!r}")
    if k < 0:
        raise ValueError(f"the exponent must be >= 0, got {k}")
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
    if not (type(r) is type(n) is int):
        raise TypeError(f"r and n must be ints, got {(r, n)!r}")
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


# Factor kind -> (Levi rule, the criterion's parameter names: those of the
# split-off block and then those of the whole factor, the criterion, and the
# name of the value it returns as evidence).  A Levi step's evidence holds
# the parameters and the value under these names.  The table builds the
# Levi steps of both chains (``_levi_steps``), and ``ChainStep.validate``
# and the CLI read it back.
LEVI_CRITERIA = {
    "GL": (RULE_LEVI_GL, ("r", "s", "m", "n"), is_splitting_levi_gl, "sdim"),
    "Q": (RULE_LEVI_Q, ("r", "n"), is_splitting_levi_q, "parity_product"),
}
_LEVI_KINDS = {rule: kind for kind, (rule, *_) in LEVI_CRITERIA.items()}


class ChainStep(NamedTuple):
    """One certified inclusion sub < sup with its rule and witness data."""

    sub: GroupDesc
    sup: GroupDesc
    rule: str
    evidence: dict

    def validate(self) -> bool:
        """Recompute the witness and recheck the rule and bookkeeping."""
        if self.rule in _LEVI_KINDS:
            kind = _LEVI_KINDS[self.rule]
            _, names, criterion, key = LEVI_CRITERIA[kind]
            params = operator.itemgetter(*names)(self.evidence)
            check = criterion(*params)
            half = len(params) // 2
            block, whole = params[:half], params[half:]
            rest = tuple(map(operator.sub, whole, block))
            return (check.ok and check.evidence == self.evidence[key]
                    and _replaces_factor(self.sup, self.sub, (kind, *whole),
                                         _factor(kind, *block) * _factor(kind, *rest)))
        if self.rule == RULE_ODD_PARTS_EQUAL:
            return (_removed_factors(self.sup, self.sub, _factor_contains) is not None
                    and self.sub.odd_dim == self.sup.odd_dim == self.evidence["odd_dim"])
        if self.rule == RULE_FACTOR_SPLIT:
            removed = _removed_factors(self.sup, self.sub, operator.eq)
            return (removed is not None and all(_atom_dims(a)[1] == 0 for a in removed)
                    and list(self.evidence["removed"]) == [_atom_label(a) for a in removed])
        return False


def _replaces_factor(sup: GroupDesc, sub: GroupDesc, old: Atom, new: GroupDesc) -> bool:
    """Whether sub arises from sup by replacing one ``old`` factor by ``new``."""
    return any(GroupDesc(sup.factors[:i] + new.factors + sup.factors[i + 1:]) == sub
               for i, atom in enumerate(sup.factors) if atom == old)


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
        return [self.bottom] + [step.sup for step in self.steps]

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


def _levi_steps(kind: str, block: tuple, whole: tuple, count: int):
    """The Levi steps that peel ``count`` factors ``kind(block)`` off the
    factor ``kind(whole)``, from the bottom up: step k takes
    kind(block)^k × kind(whole - k block) down to
    kind(block)^(k+1) × kind(whole - (k+1) block), with the evidence that
    ``LEVI_CRITERIA`` names."""
    rule, names, criterion, key = LEVI_CRITERIA[kind]
    peel = _factor(kind, *block)
    for k in reversed(range(count)):
        rest = tuple(w - k * b for w, b in zip(whole, block))
        yield ChainStep(power(peel, k + 1) * _factor(kind, *map(operator.sub, rest, block)),
                        power(peel, k) * _factor(kind, *rest), rule,
                        {**dict(zip(names, block + rest)), key: criterion(*block, *rest).evidence})


def _gl_chain(m: int, n: int) -> SubgroupChain:
    """SL(1|1)^d < GL(1|1)^d [< GL(1|1)^d×GL(m-d|n-d)] < ... < GL(m|n), d = min(m, n).

    Levi step k peels GL(1|1) off GL(m-k|n-k) after k earlier peels; for m = n
    the last peel is skipped, since it would leave GL(1|1) itself.  A purely
    even GL(m|n) has trivial odd part and goes straight down to 1.
    """
    top, d = GL(m, n), min(m, n)
    if d == 0:
        step = ChainStep(trivial(), top, RULE_ODD_PARTS_EQUAL, {"odd_dim": 0})
        return SubgroupChain(top, (step,) if top.factors else ())
    ones = power(GL(1, 1), d)
    steps = [ChainStep(power(SL(1, 1), d), ones, RULE_ODD_PARTS_EQUAL, {"odd_dim": 2 * d})]
    if m != n:
        leftover = GL(m - d, n - d)
        steps.append(ChainStep(ones, ones * leftover, RULE_FACTOR_SPLIT,
                               {"removed": [leftover.label()]}))
    steps.extend(_levi_steps("GL", (1, 1), (m, n), d - (m == n)))
    return SubgroupChain(top, tuple(steps))


def _q_chain(n: int) -> SubgroupChain:
    """Q(2)^d [×Q(1)] < ... < Q(n): Levi step k peels Q(2) off Q(n-2k) while
    n-2k >= 3."""
    return SubgroupChain(Q(n), tuple(_levi_steps("Q", (2,), (n,), (n - 1) // 2)))


def minimal_chain(group: GroupDesc) -> SubgroupChain:
    """Certified chain up to the given GL(m|n) or Q(n) from its splitting
    subgroup SL(1|1)^min(m,n), conjecturally minimal, or Q(2)^d(×Q(1)),
    minimal; every step revalidates on demand."""
    match group.factors:
        case (("GL", m, n),):
            return _gl_chain(m, n)
        case (("Q", n),):
            return _q_chain(n)
        case ():
            return SubgroupChain(group, ())
    raise ValueError(f"unsupported family for chain construction: {group.label()}")
