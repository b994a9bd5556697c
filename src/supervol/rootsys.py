"""Root systems of classical Lie superalgebras and defect computation.

Weights are tuples of Fractions in a fixed basis; each system carries a
rational Gram matrix for the invariant form.  The defect (the maximal
number of mutually orthogonal, linearly independent isotropic odd roots)
is found by a branch-and-bound search certified by the Witt index of the
form: such roots span a totally isotropic subspace, so the defect is at
most ``witt_index``, and the search stops as soon as it reaches that
bound.  On every supported family it does, after a handful of nodes;
the search is capped at ``SEARCH_NODE_BUDGET`` nodes.

Supported families:

* ``gl`` / ``sl`` -- gl(m|n), sl(m|n): basis eps_1..eps_m, delta_1..delta_n
  with diagonal form (+1^m, -1^n);
* ``osp`` -- osp(M|2n);
* ``d21a`` -- the one-parameter family D(2,1;alpha), alpha not in {0, -1};
* ``g3``, ``f4`` -- the two exceptional families, as literal tables;
* ``q`` -- q(n), whose roots carry multiplicity (1|1) and which is not
  contragredient (isotropy and defect are undefined for it here).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .exactnum import as_fraction, inertia, rank, reject_tuple_arithmetic

EVEN = "even"
ODD = "odd"
MIXED = "mixed"  # q(n) only: root space of dimension (1|1)

# Node cap of the defect search; past it the search raises ValueError.
SEARCH_NODE_BUDGET = 10 ** 6


class Root(NamedTuple):
    coords: tuple[Fraction, ...]
    parity: str

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords), self.parity)

    __add__ = __radd__ = __mul__ = __rmul__ = reject_tuple_arithmetic


class RootSystem(NamedTuple):
    family: str
    params: tuple
    gram: tuple[tuple[Fraction, ...], ...]
    roots: tuple[Root, ...]
    contragredient: bool = True

    @property
    def dim(self) -> int:
        return len(self.gram)


def _vec(coords) -> tuple[Fraction, ...]:
    return tuple(as_fraction(c) for c in coords)


def _basis_vec(dim: int, assignments: dict[int, int | Fraction]) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * dim
    for i, c in assignments.items():
        v[i] = as_fraction(c)
    return tuple(v)


def _diag_gram(signature) -> tuple[tuple[Fraction, ...], ...]:
    n = len(signature)
    return tuple(
        tuple(as_fraction(signature[i]) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def _with_negatives(roots):
    return tuple(roots) + tuple(-r for r in roots)


def _gl_roots(m: int, n: int) -> tuple[Root, ...]:
    dim = m + n
    pos = []
    for i, j in itertools.combinations(range(m), 2):
        pos.append(Root(_basis_vec(dim, {i: 1, j: -1}), EVEN))
    for i, j in itertools.combinations(range(n), 2):
        pos.append(Root(_basis_vec(dim, {m + i: 1, m + j: -1}), EVEN))
    for i in range(m):
        for j in range(n):
            pos.append(Root(_basis_vec(dim, {i: 1, m + j: -1}), ODD))
    return _with_negatives(pos)


def _osp_roots(big_m: int, two_n: int) -> tuple[Root, ...]:
    m, n = big_m // 2, two_n // 2
    odd_m = big_m % 2 == 1
    dim = m + n
    pos = []
    for i, j in itertools.combinations(range(m), 2):
        pos.append(Root(_basis_vec(dim, {i: 1, j: 1}), EVEN))
        pos.append(Root(_basis_vec(dim, {i: 1, j: -1}), EVEN))
    for k, l in itertools.combinations(range(n), 2):
        pos.append(Root(_basis_vec(dim, {m + k: 1, m + l: 1}), EVEN))
        pos.append(Root(_basis_vec(dim, {m + k: 1, m + l: -1}), EVEN))
    for k in range(n):
        pos.append(Root(_basis_vec(dim, {m + k: 2}), EVEN))
    if odd_m:
        for i in range(m):
            pos.append(Root(_basis_vec(dim, {i: 1}), EVEN))
        for k in range(n):
            pos.append(Root(_basis_vec(dim, {m + k: 1}), ODD))
    for i in range(m):
        for k in range(n):
            pos.append(Root(_basis_vec(dim, {i: 1, m + k: 1}), ODD))
            pos.append(Root(_basis_vec(dim, {i: 1, m + k: -1}), ODD))
    return _with_negatives(pos)


def _d21a_roots() -> tuple[Root, ...]:
    evens = [Root(_basis_vec(3, {i: 2}), EVEN) for i in range(3)]
    odds = [
        Root(_vec((1, s2, s3)), ODD)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    return _with_negatives(evens + odds)


def _g3_roots() -> tuple[Root, ...]:
    # basis (eps1, eps2, delta); eps3 = -eps1 - eps2
    e1 = _vec((1, 0, 0))
    e2 = _vec((0, 1, 0))
    e3 = _vec((-1, -1, 0))
    pos_even = [
        Root(e1, EVEN), Root(e2, EVEN), Root(e3, EVEN),
        Root(_vec((1, -1, 0)), EVEN),   # eps1 - eps2
        Root(_vec((2, 1, 0)), EVEN),    # eps1 - eps3
        Root(_vec((1, 2, 0)), EVEN),    # eps2 - eps3
        Root(_vec((0, 0, 2)), EVEN),    # 2 delta
    ]
    pos_odd = [Root(_vec((0, 0, 1)), ODD)]  # delta
    for eps in (e1, e2, e3):
        for s in (1, -1):
            pos_odd.append(Root(_vec((eps[0], eps[1], s)), ODD))
    return _with_negatives(pos_even + pos_odd)


def _f4_roots() -> tuple[Root, ...]:
    # basis (eps1, eps2, eps3, delta)
    pos = []
    for i, j in itertools.combinations(range(3), 2):
        pos.append(Root(_basis_vec(4, {i: 1, j: 1}), EVEN))
        pos.append(Root(_basis_vec(4, {i: 1, j: -1}), EVEN))
    for i in range(3):
        pos.append(Root(_basis_vec(4, {i: 1}), EVEN))
    pos.append(Root(_basis_vec(4, {3: 1}), EVEN))
    half = Fraction(1, 2)
    for s1, s2 in itertools.product((1, -1), repeat=2):
        for s3 in (1, -1):
            pos.append(Root(_vec((half, s1 * half, s2 * half, s3 * half)), ODD))
    return _with_negatives(pos)


def _q_roots(n: int) -> tuple[Root, ...]:
    pos = [
        Root(_basis_vec(n, {i: 1, j: -1}), MIXED)
        for i, j in itertools.combinations(range(n), 2)
    ]
    return _with_negatives(pos)


def build_root_system(family: str, *params) -> RootSystem:
    """Construct the root system of the named family.

    ``gl``/``sl`` take (m, n); ``osp`` takes (M, 2n); ``d21a`` takes the
    form parameter alpha (any Fraction-able value outside {0, -1});
    ``g3`` and ``f4`` take no parameters; ``q`` takes (n,).
    """
    fam = family.lower()
    if fam in ("gl", "sl"):
        if len(params) != 2 or any(not isinstance(p, int) or p < 0 for p in params):
            raise ValueError(f"{fam}(m|n) requires integers m, n >= 0")
        m, n = params
        return RootSystem(fam, (m, n), _diag_gram([1] * m + [-1] * n),
                          _gl_roots(m, n))
    if fam == "osp":
        if (len(params) != 2 or any(not isinstance(p, int) or p < 0 for p in params)
                or params[1] % 2 != 0):
            raise ValueError("osp(M|2n) requires integers M >= 0 and even 2n >= 0")
        big_m, two_n = params
        m, n = big_m // 2, two_n // 2
        return RootSystem(fam, (big_m, two_n), _diag_gram([1] * m + [-1] * n),
                          _osp_roots(big_m, two_n))
    if fam == "d21a":
        if len(params) != 1:
            raise ValueError("d21a requires the form parameter alpha")
        alpha = as_fraction(params[0])
        if alpha in (0, -1):
            raise ValueError("d21a parameter alpha must avoid 0 and -1")
        gram = _diag_gram([-(1 + alpha), Fraction(1), alpha])
        return RootSystem(fam, (alpha,), gram, _d21a_roots())
    if fam == "g3":
        if params:
            raise ValueError("g3 takes no parameters")
        gram = tuple(map(_vec, ((2, -1, 0), (-1, 2, 0), (0, 0, -2))))
        return RootSystem(fam, (), gram, _g3_roots())
    if fam == "f4":
        if params:
            raise ValueError("f4 takes no parameters")
        return RootSystem(fam, (), _diag_gram([1, 1, 1, -3]), _f4_roots())
    if fam == "q":
        if len(params) != 1 or not isinstance(params[0], int) or params[0] < 0:
            raise ValueError("q(n) requires an integer n >= 0")
        n = params[0]
        return RootSystem(fam, (n,), _diag_gram([1] * n), _q_roots(n),
                          contragredient=False)
    raise ValueError(f"unknown family {family!r}")


def inner(system: RootSystem, v, w) -> Fraction:
    """The invariant form evaluated on two weight vectors."""
    vv, ww = _vec(v), _vec(w)
    if len(vv) != system.dim or len(ww) != system.dim:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    for i, vi in enumerate(vv):
        if vi == 0:
            continue
        row = system.gram[i]
        total += vi * sum(g * wj for g, wj in zip(row, ww) if wj != 0)
    return total


def _require_contragredient(system: RootSystem):
    if not system.contragredient:
        raise ValueError("isotropy undefined: q(n) handled by parity criteria")


def isotropic_roots(system: RootSystem) -> tuple[Root, ...]:
    """Odd roots with vanishing self-pairing."""
    _require_contragredient(system)
    return tuple(
        r for r in system.roots
        if r.parity == ODD and inner(system, r.coords, r.coords) == 0
    )


def _positive_representatives(system: RootSystem) -> list[Root]:
    """One root per pair {a, -a}, sign-normalized and canonically sorted.

    The sign makes the first nonzero coordinate positive; the sort key is
    (support positions, coordinate tuple), so e.g. in gl(m|n) the roots
    eps_i - delta_j come in the order of their index pairs (i, j).
    """
    reps = set()
    for r in isotropic_roots(system):
        coords = r.coords
        lead = next(c for c in coords if c != 0)
        if lead < 0:
            coords = tuple(-c for c in coords)
        reps.add(coords)

    def key(coords):
        support = tuple(i for i, c in enumerate(coords) if c != 0)
        return (support, coords)

    return [Root(c, ODD) for c in sorted(reps, key=key)]


def witt_index(system: RootSystem) -> int:
    """Dimension of a maximal totally isotropic subspace of the form.

    With inertia (pos, neg, zero) of the Gram matrix this is
    min(pos, neg) + zero; it bounds the defect from above.
    """
    pos, neg, zero = inertia(system.gram)
    return min(pos, neg) + zero


def _max_orthogonal_independent(system: RootSystem, reps: list[Root]) -> list[Root]:
    """First maximum mutually orthogonal, linearly independent subset of reps.

    Include-first depth-first branch and bound over the canonical rep
    order: a branch is cut when it cannot beat the best set so far, and
    the search stops once the best set reaches the Witt index.  The
    result is the first maximum subset in include-first order.
    """
    bound = witt_index(system)
    n = len(reps)
    orthogonal: dict[tuple[int, int], bool] = {}

    def orth(j: int, i: int) -> bool:
        if (j, i) not in orthogonal:
            orthogonal[j, i] = inner(system, reps[j].coords, reps[i].coords) == 0
        return orthogonal[j, i]

    best: list[int] = []
    nodes = 0

    def extend(start: int, chosen: list[int]):
        nonlocal best, nodes
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            raise ValueError(
                f"defect search on {system.family}{system.params} exceeded "
                f"{SEARCH_NODE_BUDGET} nodes")
        if len(chosen) > len(best):
            best = chosen
        for i in range(start, n):
            if len(best) == bound or len(chosen) + n - i <= len(best):
                return
            if all(orth(j, i) for j in chosen):
                vecs = [reps[j].coords for j in chosen] + [reps[i].coords]
                if rank(vecs) == len(vecs):
                    extend(i + 1, chosen + [i])

    extend(0, [])
    return [reps[i] for i in best]


def defect(system: RootSystem) -> int:
    """Maximal number of mutually orthogonal, independent isotropic roots."""
    _require_contragredient(system)
    return len(_max_orthogonal_independent(system, _positive_representatives(system)))


def defect_subgroup_roots(system: RootSystem) -> list[tuple[Root, Root]]:
    """A canonical maximal orthogonal isotropic set, as pairs {a, -a}.

    Any such set determines the same subgroup up to conjugacy; the choice
    here is the first maximum set in the canonical representative order,
    which for gl(m|n) is the diagonal family eps_i - delta_i.
    """
    chosen = _max_orthogonal_independent(system, _positive_representatives(system))
    if not chosen:
        raise ValueError("no isotropic roots")
    return [(r, -r) for r in chosen]
