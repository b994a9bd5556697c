"""Root systems of classical Lie superalgebras and defect computation.

A root is its support in a fixed basis: the nonzero integer coordinates
(i, c), sorted by i, over a denominator that all roots of a system share
(1, or 2 for ``f4``); ``Root.coords`` renders the dense Fractions for
output.  Each system carries a rational Gram matrix for the invariant
form.  The defect (the maximal number of mutually orthogonal, linearly
independent isotropic odd roots) is found by one greedy pass over the
supports, certified by the Witt index of the form: such roots span a
totally isotropic subspace, so the defect is at most ``witt_index``, and
a pass that reaches that bound has found a maximum set.  On every
supported family it does; a pass that ends below the bound raises
ValueError.

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

from .exactnum import extend_echelon, integer_inertia, sparse_form
from .exactvalue import as_fraction, integer_scaled, reject_tuple_arithmetic

EVEN = "even"
ODD = "odd"


class Root(NamedTuple):
    support: tuple[tuple[int, int], ...]  # the nonzero (i, c), sorted by i
    parity: str
    dim: int
    den: int  # coordinate i is c / den

    @property
    def coords(self) -> tuple[Fraction, ...]:
        v = [Fraction(0)] * self.dim
        for i, c in self.support:
            v[i] = Fraction(c, self.den)
        return tuple(v)

    def __neg__(self) -> "Root":
        return Root(tuple([(i, -c) for i, c in self.support]), self.parity, self.dim, self.den)

    __add__ = __radd__ = __mul__ = __rmul__ = reject_tuple_arithmetic


class RootSystem(NamedTuple):
    family: str
    params: tuple
    gram: tuple[tuple[Fraction, ...], ...]
    roots: tuple[Root, ...]


def _roots(dim: int, specs, den: int = 1) -> tuple[Root, ...]:
    """The root sum_(i, c) c/den * e_i of each (support, parity) spec,
    whose support is a tuple of the pairs (i, c) sorted by i."""
    return tuple([Root._make((support, parity, dim, den)) for support, parity in specs])


def _diag_gram(signature) -> tuple[tuple[Fraction, ...], ...]:
    exact, zero, n = {x: as_fraction(x) for x in set(signature)}, Fraction(0), len(signature)
    return tuple([(zero,) * i + (exact[x],) + (zero,) * (n - 1 - i)
                  for i, x in enumerate(signature)])


def _signed(support, parity: str, c: int = 1) -> list:
    """The specs of every root sum_k s_k * c * e_(support_k) over the signs
    s_k = +-1, the signs in the order of ``itertools.product((1, -1), ...)``."""
    return [(pairs, parity)
            for pairs in itertools.product(*[((i, c), (i, -c)) for i in support])]


def _gl_roots(m: int, n: int) -> tuple[Root, ...]:
    # e_i - e_j for i != j: even within a block, odd across the blocks; the
    # roots share one pair (i, +-1) per coordinate
    plus, minus = [(i, 1) for i in range(m + n)], [(i, -1) for i in range(m + n)]
    return _roots(m + n, (((plus[i], minus[j]) if i < j else (minus[j], plus[i]),
                           EVEN if (i < m) == (j < m) else ODD)
                          for i, j in itertools.permutations(range(m + n), 2)))


def _osp_roots(big_m: int, two_n: int) -> tuple[Root, ...]:
    # s e_i + t e_j over the sign pairs, +-2 delta_k, and +-e_i, +-delta_k
    # when M is odd; basis eps_1..eps_m, delta_1..delta_n
    m, n = big_m // 2, two_n // 2
    dim = m + n
    specs = []
    for i, j in itertools.combinations(range(dim), 2):
        specs += _signed((i, j), EVEN if (i < m) == (j < m) else ODD)
    for k in range(m, dim):
        specs += _signed((k,), EVEN, 2)
    if big_m % 2 == 1:
        for i in range(dim):
            specs += _signed((i,), EVEN if i < m else ODD)
    return _roots(dim, specs)


def _d21a_roots() -> tuple[Root, ...]:
    evens = [spec for i in range(3) for spec in _signed((i,), EVEN, 2)]
    return _roots(3, evens + _signed(range(3), ODD))


def _g3_roots() -> tuple[Root, ...]:
    # basis (eps1, eps2, delta); eps3 = -eps1 - eps2.  Positive even roots:
    # eps1, eps2, eps3, eps1 - eps2, eps1 - eps3, eps2 - eps3, 2 delta; odd:
    # delta and eps_k +- delta
    e1, e2, e3 = (1, 0), (0, 1), (-1, -1)
    pos = [(v, EVEN) for v in ((*e1, 0), (*e2, 0), (*e3, 0), (1, -1, 0), (2, 1, 0),
                               (1, 2, 0), (0, 0, 2))]
    pos += [((0, 0, 1), ODD)] + [((*eps, s), ODD) for eps in (e1, e2, e3) for s in (1, -1)]
    return _roots(3, [(tuple([(i, sign * c) for i, c in enumerate(v) if c]), parity)
                      for sign in (1, -1) for v, parity in pos])


def _f4_roots() -> tuple[Root, ...]:
    # basis (eps1, eps2, eps3, delta), in halves
    specs = [spec for i, j in itertools.combinations(range(3), 2)
             for spec in _signed((i, j), EVEN, 2)]
    specs += [spec for i in range(4) for spec in _signed((i,), EVEN, 2)]
    return _roots(4, specs + _signed(range(4), ODD), 2)


def build_root_system(family: str, *params) -> RootSystem:
    """Construct the root system of the named family.

    ``gl``/``sl`` take (m, n); ``osp`` takes (M, 2n); ``d21a`` takes the
    form parameter alpha (any Fraction-able value outside {0, -1});
    ``g3`` and ``f4`` take no parameters.
    """
    fam = family.lower()
    if fam in ("gl", "sl"):
        if len(params) != 2 or any(type(p) is not int or p < 0 for p in params):
            raise ValueError(f"{fam}(m|n) requires integers m, n >= 0")
        m, n = params
        return RootSystem(fam, (m, n), _diag_gram([1] * m + [-1] * n),
                          _gl_roots(m, n))
    if fam == "osp":
        if (len(params) != 2 or any(type(p) is not int or p < 0 for p in params)
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
        two, minus, zero = Fraction(2), Fraction(-1), Fraction(0)
        gram = ((two, minus, zero), (minus, two, zero), (zero, zero, -two))
        return RootSystem(fam, (), gram, _g3_roots())
    if fam == "f4":
        if params:
            raise ValueError("f4 takes no parameters")
        return RootSystem(fam, (), _diag_gram([1, 1, 1, -3]), _f4_roots())
    raise ValueError(f"unknown family {family!r}")


def _isotropic(system: RootSystem) -> tuple[list[list[int]], list[Root]]:
    """The Gram matrix scaled to integers, and the isotropic odd roots.
    The scale and the roots' denominator are positive, so every zero test
    of the form, sign and order on the supports is that of the exact values."""
    gram, _ = integer_scaled(system.gram)
    return gram, [r for r in system.roots
                  if r.parity == ODD and sparse_form(gram, r.support, r.support) == 0]


def isotropic_roots(system: RootSystem) -> tuple[Root, ...]:
    """Odd roots with vanishing self-pairing."""
    return tuple(_isotropic(system)[1])


def _positive_representatives(system: RootSystem) -> tuple[list[list[int]], list[Root]]:
    """One root per pair {a, -a}, sign-normalized and canonically sorted.

    The sign makes the first nonzero coordinate positive; the sort key is
    (support positions, coordinate values), so e.g. in gl(m|n) the roots
    eps_i - delta_j come in the order of their index pairs (i, j).
    Returns the integer Gram matrix of :func:`_isotropic` beside them.
    """
    gram, iso = _isotropic(system)
    reps = {}
    # the first root met of each pair is kept, and a negative root is
    # negated only when its pair is new
    for r in iso:
        s = r.support
        if s[0][1] > 0:
            reps.setdefault(s, r)
        elif (s := tuple([(i, -c) for i, c in s])) not in reps:
            reps[s] = -r
    # the key [positions, values]: with equal positions, the values order
    # the coordinate tuples
    return gram, [reps[s] for s in sorted(reps, key=lambda s: list(zip(*s)))]


def _witt_bound(gram: list[list[int]]) -> int:
    """min(pos, neg) + zero for the inertia of the integer Gram matrix
    ``gram``, which is left intact: ``integer_inertia`` eliminates in a copy."""
    pos, neg, zero = integer_inertia([row[:] for row in gram])
    return min(pos, neg) + zero


def witt_index(system: RootSystem) -> int:
    """Dimension of a maximal totally isotropic subspace of the form.

    With inertia (pos, neg, zero) of the Gram matrix this is
    min(pos, neg) + zero; it bounds the defect from above.  The inertia is
    read from the Gram matrix scaled to integers, which keeps it.
    """
    return _witt_bound(integer_scaled(system.gram)[0])


def _max_orthogonal_independent(system: RootSystem) -> list[Root]:
    """A maximum mutually orthogonal, linearly independent subset of the
    positive representatives, certified by the Witt index.

    One include-first pass over the canonical representative order keeps
    a representative when it is orthogonal to the roots kept so far and the
    kept set stays independent, and stops at the Witt index.  Both tests run
    on the integer supports: ``sparse_form``, and one ``extend_echelon``
    reduction against the kept roots.  A pass that ends below the Witt
    index is not certified maximal and raises ValueError.
    """
    gram, reps = _positive_representatives(system)
    bound = _witt_bound(gram)
    kept: list[Root] = []
    echelon: list = []
    for root in reps:
        if len(kept) == bound:
            break
        if (all(sparse_form(gram, k.support, root.support) == 0 for k in kept)
                and extend_echelon(echelon, root.support)):
            kept.append(root)
    if len(kept) < bound:
        raise ValueError(
            f"defect of {system.family}{system.params} not certified: the greedy "
            f"pass kept {len(kept)} roots, below the Witt index {bound}")
    return kept


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
