"""Root systems of classical Lie superalgebras and defect computation.

Weights are tuples of Fractions in a fixed basis; each system carries a
rational Gram matrix for the invariant form.  The defect (the maximal
number of mutually orthogonal, linearly independent isotropic odd roots)
is found by one greedy pass certified by the Witt index of the form: such
roots span a totally isotropic subspace, so the defect is at most
``witt_index``, and a pass that reaches that bound has found a maximum
set.  On every supported family it does; a pass that ends below the bound
raises ValueError.

Supported families:

* ``gl`` / ``sl`` -- gl(m|n), sl(m|n): basis eps_1..eps_m, delta_1..delta_n
  with diagonal form (+1^m, -1^n);
* ``osp`` -- osp(M|2n);
* ``d21a`` -- the one-parameter family D(2,1;alpha), alpha not in {0, -1};
* ``g3``, ``f4`` -- the two exceptional families, as literal tables.

q(n) is not contragredient; its splitting is decided by the parity
criteria in ``splitting``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .exactnum import (as_fraction, form, inertia, integer_scaled, rank,
                       reject_tuple_arithmetic)

EVEN = "even"
ODD = "odd"


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


def _signed(dim: int, support, parity: str, scale=1) -> list[Root]:
    """Every root sum_k s_k * scale * e_(support_k) over the signs s_k = +-1."""
    return [Root(_basis_vec(dim, {i: s * scale for i, s in zip(support, signs)}), parity)
            for signs in itertools.product((1, -1), repeat=len(support))]


def _gl_roots(m: int, n: int) -> tuple[Root, ...]:
    # e_i - e_j for i != j: even within a block, odd across the blocks
    return tuple(Root(_basis_vec(m + n, {i: 1, j: -1}), EVEN if (i < m) == (j < m) else ODD)
                 for i, j in itertools.permutations(range(m + n), 2))


def _osp_roots(big_m: int, two_n: int) -> tuple[Root, ...]:
    # s e_i + t e_j over the sign pairs, +-2 delta_k, and +-e_i, +-delta_k
    # when M is odd; basis eps_1..eps_m, delta_1..delta_n
    m, n = big_m // 2, two_n // 2
    dim = m + n
    roots = []
    for i, j in itertools.combinations(range(dim), 2):
        roots += _signed(dim, (i, j), EVEN if (i < m) == (j < m) else ODD)
    for k in range(m, dim):
        roots += _signed(dim, (k,), EVEN, 2)
    if big_m % 2 == 1:
        for i in range(dim):
            roots += _signed(dim, (i,), EVEN if i < m else ODD)
    return tuple(roots)


def _d21a_roots() -> tuple[Root, ...]:
    evens = [r for i in range(3) for r in _signed(3, (i,), EVEN, 2)]
    return tuple(evens + _signed(3, range(3), ODD))


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
    pos = pos_even + pos_odd
    return tuple(pos) + tuple(-r for r in pos)


def _f4_roots() -> tuple[Root, ...]:
    # basis (eps1, eps2, eps3, delta)
    roots = []
    for i, j in itertools.combinations(range(3), 2):
        roots += _signed(4, (i, j), EVEN)
    for i in range(4):
        roots += _signed(4, (i,), EVEN)
    return tuple(roots + _signed(4, range(4), ODD, Fraction(1, 2)))


def build_root_system(family: str, *params) -> RootSystem:
    """Construct the root system of the named family.

    ``gl``/``sl`` take (m, n); ``osp`` takes (M, 2n); ``d21a`` takes the
    form parameter alpha (any Fraction-able value outside {0, -1});
    ``g3`` and ``f4`` take no parameters.
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
    raise ValueError(f"unknown family {family!r}")


def _isotropic(system: RootSystem) -> tuple[list[list[int]], list[tuple[Root, list[int]]]]:
    """The Gram matrix scaled to integers, and the isotropic odd roots,
    each beside its coordinates scaled to integers by one common lcm.

    Both scales are positive, so every zero test of the form, every sign
    and the lexicographic order of coordinates are those of the exact
    values; the defect pass runs on these integers through ``form``.
    """
    gram, _ = integer_scaled(system.gram)
    odd = [r for r in system.roots if r.parity == ODD]
    coords, _ = integer_scaled([r.coords for r in odd])
    return gram, [(r, c) for r, c in zip(odd, coords) if form(gram, c, c) == 0]


def isotropic_roots(system: RootSystem) -> tuple[Root, ...]:
    """Odd roots with vanishing self-pairing."""
    return tuple(r for r, _ in _isotropic(system)[1])


def _positive_representatives(system: RootSystem):
    """One root per pair {a, -a}, sign-normalized and canonically sorted.

    The sign makes the first nonzero coordinate positive; the sort key is
    (support positions, coordinate tuple), so e.g. in gl(m|n) the roots
    eps_i - delta_j come in the order of their index pairs (i, j).
    Returns the integer Gram matrix of :func:`_isotropic` and the
    representatives beside their integer coordinates.
    """
    gram, iso = _isotropic(system)
    reps = {}
    # the first root met of each pair is kept: a positive root listed first
    # needs no negation
    for r, c in iso:
        flip = next(x for x in c if x) < 0
        coords = tuple(-x for x in c) if flip else tuple(c)
        if coords not in reps:
            reps[coords] = -r if flip else r

    def key(coords):
        support = tuple(i for i, c in enumerate(coords) if c != 0)
        return (support, coords)

    return gram, [(reps[c], c) for c in sorted(reps, key=key)]


def witt_index(system: RootSystem) -> int:
    """Dimension of a maximal totally isotropic subspace of the form.

    With inertia (pos, neg, zero) of the Gram matrix this is
    min(pos, neg) + zero; it bounds the defect from above.
    """
    pos, neg, zero = inertia(system.gram)
    return min(pos, neg) + zero


def _max_orthogonal_independent(system: RootSystem) -> list[Root]:
    """A maximum mutually orthogonal, linearly independent subset of the
    positive representatives, certified by the Witt index.

    One include-first pass over the canonical representative order keeps
    a representative when it is orthogonal to the roots kept so far and the
    kept set stays independent, and stops at the Witt index.  Orthogonality and
    independence are decided on the integer coordinates of
    :func:`_positive_representatives`.  A pass that ends below the Witt
    index is not certified maximal and raises ValueError.
    """
    gram, reps = _positive_representatives(system)
    bound = witt_index(system)
    kept: list[tuple[Root, tuple[int, ...]]] = []
    for root, coords in reps:
        if len(kept) == bound:
            break
        if (all(form(gram, c, coords) == 0 for _, c in kept)
                and rank([c for _, c in kept] + [coords]) == len(kept) + 1):
            kept.append((root, coords))
    if len(kept) < bound:
        raise ValueError(
            f"defect of {system.family}{system.params} not certified: the greedy "
            f"pass kept {len(kept)} roots, below the Witt index {bound}")
    return [root for root, _ in kept]


def defect(system: RootSystem) -> int:
    """Maximal number of mutually orthogonal, independent isotropic roots."""
    return len(_max_orthogonal_independent(system))


def defect_subgroup_roots(system: RootSystem) -> list[tuple[Root, Root]]:
    """A canonical maximal orthogonal isotropic set, as pairs {a, -a}.

    Any such set determines the same subgroup up to conjugacy; the choice
    here is the set the greedy pass keeps over the canonical representative
    order, which for gl(m|n) is the diagonal family eps_i - delta_i.
    """
    chosen = _max_orthogonal_independent(system)
    if not chosen:
        raise ValueError("no isotropic roots")
    return [(r, -r) for r in chosen]
