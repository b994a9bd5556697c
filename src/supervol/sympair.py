"""Restricted-root data for three symmetric pairs and Casimir positivity.

Each built-in pair is the rational Gram matrix (alpha_i, alpha_j) of the
invariant form in the basis of its simple restricted roots, checked
against declared consecutive length ratios, and the weight rho (half the
multiplicity-weighted positive-root sum, declared in simple-root
coordinates, which are checked to be nonnegative).
The quadratic Casimir acts on a highest-weight eigenfunction of weight
lam by (lam + 2 rho, lam); for nonzero dominant weights this is strictly
positive, which is the key inequality this module exposes.  The
eigenvalue is one integer form: the Gram matrix and rho are scaled to
integers once per pair, the weight once at the boundary, and
``positivity_checks`` takes a sweep's weights already as integers over
one denominator.

Also houses the principal-block weight list of the D(2,1;alpha) family:
lam_l = (l+1) eps1 + (l-1)(eps2 + eps3) for l >= 1 and lam_0 = 0, of
which exactly lam_0 and lam_1 restrict to the rank-two subspace spanned
by eps1, eps2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactnum import det, form, inertia, mat
from .exactvalue import as_fraction, integer_scaled

Vector = tuple[Fraction, ...]


class RestrictedPair(NamedTuple):
    """Restricted-root data of a rank-k symmetric pair.

    Weights are written in the basis of the simple restricted roots, so
    alpha_i is the i-th coordinate vector and the Gram matrix is the
    matrix of pairings (alpha_i, alpha_j).
    """

    name: str
    gram: tuple[tuple[Fraction, ...], ...]
    rho: Vector

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_dominant(self, v) -> bool:
        """Whether (v, alpha_j) >= 0 for every simple root alpha_j."""
        k = self.rank
        return all(form(self.gram, v, [int(i == j) for i in range(k)]) >= 0
                   for j in range(k))


def _pair(name, gram_rows, rho_coeffs, ratios) -> RestrictedPair:
    gram = mat(gram_rows)
    ratios = [as_fraction(r) for r in ratios]
    for i, ratio in enumerate(ratios):
        if gram[i][i] != ratio * gram[i + 1][i + 1]:
            raise ValueError(f"{name}: declared length ratio mismatch")
    rho = tuple([as_fraction(c) for c in rho_coeffs])
    if any(c < 0 for c in rho):
        raise ValueError(f"{name}: negative rho coefficient")
    return RestrictedPair(name, gram, rho)


def osp_pair(m: int, n: int) -> RestrictedPair:
    """Rank-one pair osp(2m|2n) / osp(2m|2n-2) x sp(2); needs n > m >= 0.

    Restricted system of type BC1 with positive roots {alpha, 2*alpha};
    rho = (n - m - 1) alpha.
    """
    if not (type(m) is type(n) is int):
        raise TypeError(f"m and n must be ints, got {(m, n)!r}")
    if not n > m >= 0:
        raise ValueError("orthosymplectic pair requires n > m >= 0")
    return _pair(f"osp({2*m}|{2*n})/osp({2*m}|{2*n-2})xsp(2)",
                 [[2]], [n - m - 1], [])


def g12_pair() -> RestrictedPair:
    """Pair g(1|2) / d(1,2;3): restricted system of type G2, rho = a1 + a2."""
    return _pair("g(1|2)/d(1,2;3)", [[6, -3], [-3, 2]], [1, 1], [3])


def f31_pair() -> RestrictedPair:
    """Pair f(3|1) / d(1,2;2) x sl(2): rho = a1 + 2 a2 + 3 a3.

    The invariant form is pinned by the consecutive length ratios 3/8 and
    2; the off-diagonal pairings are a positive-definite chain choice,
    to which the positivity results are insensitive.
    """
    return _pair("f(3|1)/d(1,2;2)xsl(2)",
                 [[6, -3, 0], [-3, 16, -4], [0, -4, 8]],
                 [1, 2, 3], [Fraction(3, 8), 2])


def builtin_pairs(m: int, n: int) -> list[RestrictedPair]:
    """The three built-in pair families; (m, n) parametrizes the osp one."""
    return [osp_pair(m, n), g12_pair(), f31_pair()]


def _scaled(pair: RestrictedPair) -> tuple[list[list[int]], list[int], int, int]:
    """The Gram matrix scaled to integers G by the lcm e of its denominators,
    rho scaled to integers R by the lcm s of its own, then e and s."""
    gram, e = integer_scaled(pair.gram)
    [rho], s = integer_scaled([pair.rho])
    return gram, rho, e, s


def _casimir(scaled, w: list[int], d: int) -> tuple[int, int]:
    """The eigenvalue (w + 2 rho, w) of the weight w = W / d, with W integers
    and d > 0, on the pair data (G, R, e, s) of :func:`_scaled`: the integer
    (s W + 2 d R)^T G W over e s d^2."""
    gram, rho, e, s = scaled
    return form(gram, [s * x + 2 * d * y for x, y in zip(w, rho)], w), e * s * d * d


def _integer_weight(weight) -> tuple[list[int], int]:
    [w], d = integer_scaled([[as_fraction(x) for x in weight]])
    return w, d


def casimir_eigenvalue(pair: RestrictedPair, weight) -> Fraction:
    """Exact value of (weight + 2 rho, weight) under the pair's form."""
    w, d = _integer_weight(weight)
    return Fraction(*_casimir(_scaled(pair), w, d))


def positivity_checks(pair: RestrictedPair, weights, d: int):
    """:func:`positivity_check` for each weight W / d, with W an integer
    vector and d > 0 one common denominator; the pair is scaled to integers
    once for all of them."""
    scaled = _scaled(pair)
    for w in weights:
        if not any(w):
            raise ValueError("excluded by hypothesis")
        yield _casimir(scaled, w, d)[0] > 0


def positivity_check(pair: RestrictedPair, weight) -> bool:
    """Whether the Casimir eigenvalue of a nonzero weight is positive.

    Guaranteed true for dominant weights of the built-in pairs: the form
    is positive definite on the root lattice and the rho coefficients are
    nonnegative, so (w, w) + 2 sum c_i (w, alpha_i) > 0.
    """
    w, d = _integer_weight(weight)
    return next(positivity_checks(pair, [w], d))


def fundamental_weights(pair: RestrictedPair) -> tuple[Vector, ...]:
    """Dual basis vectors w_i with (w_i, alpha_j) = delta_ij.

    Nonnegative combinations of these are exactly the dominant weights,
    which is how the positivity sweeps generate their grids.  They are the
    columns of the inverse Gram matrix G^(-1), by Cramer's rule with
    ``det``: w_j[i] = det(G with column i replaced by e_j) / det(G).  A
    degenerate form raises ValueError.
    """
    g, k = pair.gram, pair.rank
    d = det(g)
    if d == 0:
        raise ValueError("matrix is singular")
    return tuple([
        tuple([det([row[:i] + (int(r == j),) + row[i + 1:] for r, row in enumerate(g)]) / d
               for i in range(k)])
        for j in range(k)])


def gram_positive_definite(pair: RestrictedPair) -> bool:
    """Whether the Gram matrix has inertia (rank, 0, 0)."""
    return inertia(pair.gram) == (pair.rank, 0, 0)


# --- D(2,1;alpha) principal-block weights ---------------------------------

def d21a_weight(l: int) -> Vector:
    """The l-th dominant weight of the principal block, in the eps basis."""
    if type(l) is not int:
        raise TypeError(f"index must be an int, got {l!r}")
    if l < 0:
        raise ValueError("index must be nonnegative")
    if l == 0:
        return (Fraction(0), Fraction(0), Fraction(0))
    return (Fraction(l + 1), Fraction(l - 1), Fraction(l - 1))


def d21a_in_a_star(l: int) -> bool:
    """Whether the l-th principal-block weight lies in span(eps1, eps2)."""
    return d21a_weight(l)[2] == 0

