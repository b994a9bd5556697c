"""Exact rational linear algebra: Pfaffians and fixed-point invariants.

Matrices are plain sequences of sequences of values accepted by
``fractions.Fraction``; every routine returns exact rationals.  Sizes stay
in the dozens; storage is dense and every kernel is a polynomial-time
elimination over ``Fraction``: Gaussian elimination for ranks,
determinants and inverses, skew Schur-complement elimination for
Pfaffians, and symmetric congruence elimination for the inertia of a
quadratic form.

The fixed-point invariant of an odd isomorphism acting on a (2n|2n)-
dimensional space is computed two ways:

* ``alpha_pfaffian`` -- the Pfaffian of Q01^T * Q10^(-1) in an adapted
  real basis;
* ``alpha_diagonal`` -- the closed product prod(c_i/d_i) for a diagonal
  complex action, after realification.

The two must agree on realified diagonal models; the test suite checks
this on random inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point input rejected: results must be exact")
    return Fraction(x)


def reject_tuple_arithmetic(self, other):
    """Raise TypeError.  Bound as the ``+`` and ``*`` operators that the
    NamedTuple value types do not define themselves, so that these never
    fall back to tuple concatenation or repetition."""
    raise TypeError(f"unsupported operand types for arithmetic: "
                    f"{type(self).__name__!r} and {type(other).__name__!r}")


def mat(rows) -> Matrix:
    """Normalize a matrix-like nested sequence to tuples of Fractions."""
    out = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def transpose(m) -> Matrix:
    m = mat(m)
    if not m:
        return m
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def mat_mul(a, b) -> Matrix:
    a, b = mat(a), mat(b)
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _echelon(rows: list[list[Fraction]]) -> tuple[int, Fraction]:
    """In-place row echelon; returns (rank, product of pivots with swap sign)."""
    sign = Fraction(1)
    prod = Fraction(1)
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        prod *= rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                for c in range(col, ncols):
                    rows[r][c] -= factor * rows[rank][c]
        rank += 1
    return rank, sign * prod


def rank(m) -> int:
    m = mat(m)
    if not m:
        return 0
    r, _ = _echelon([list(row) for row in m])
    return r


def det(m) -> Fraction:
    """Exact determinant by Gaussian elimination."""
    m = mat(m)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return Fraction(1)
    r, piv = _echelon([list(row) for row in m])
    return piv if r == n else Fraction(0)


def inverse(m) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    m = mat(m)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of non-square matrix")
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_piv = 1 / aug[col][col]
        aug[col] = [x * inv_piv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def is_skew(m) -> bool:
    m = mat(m)
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == -m[j][i] for i in range(n) for j in range(i, n))


def pfaffian(m) -> Fraction:
    """Pfaffian of an even-sized skew-symmetric rational matrix.

    Sign convention: Pf([[0,1],[-1,0]]) = +1, and the Pfaffian of a
    direct sum of 2x2 blocks is the product of the block Pfaffians.
    Skew Schur-complement elimination (Parlett-Reid): row k, the first
    remaining index, is paired with the first remaining l that has
    a[k][l] != 0; moving l next to k costs the sign (-1)^(pos-1), where
    pos is l's position among the remaining indices after k, and
    Pf = +-a[k][l] * Pf(S) with S the Schur complement of the (k, l)
    block.  O(n^3) exact operations at every size.
    """
    m = mat(m)
    n = len(m)
    if n % 2 == 1:
        raise ValueError("Pfaffian undefined for odd dimension")
    if not is_skew(m):
        raise ValueError("matrix is not skew-symmetric")
    a = [list(row) for row in m]
    idx = list(range(n))
    result = Fraction(1)
    while idx:
        k = idx[0]
        row_k = a[k]
        pos = next((p for p in range(1, len(idx)) if row_k[idx[p]] != 0), None)
        if pos is None:
            return Fraction(0)
        l = idx[pos]
        pivot = row_k[l]
        result *= pivot if pos % 2 == 1 else -pivot
        idx = idx[1:pos] + idx[pos + 1:]
        row_l = a[l]
        for p, i in enumerate(idx):
            row_i = a[i]
            u, v = row_i[k] / pivot, row_i[l] / pivot
            if not u and not v:
                continue
            for j in idx[p + 1:]:
                x = row_i[j] + u * row_l[j] - v * row_k[j]
                row_i[j] = x
                a[j][i] = -x
    return result


def inertia(sym) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix.

    Exact symmetric elimination: a nonzero diagonal pivot d splits off
    <d> and leaves its Schur complement, which is congruent to the rest
    (Sylvester's law of inertia).  When every remaining diagonal entry
    is 0 but some a[i][j] is not, the congruence e_i += e_j makes the
    pivot a[i][i] = 2 a[i][j] nonzero; leading minors alone would stop
    at such a zero minor.
    """
    a = [list(row) for row in mat(sym)]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inertia of non-square matrix")
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    idx = list(range(n))
    pos = neg = 0
    while idx:
        piv = next((i for i in idx if a[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for p, i in enumerate(idx) for j in idx[p + 1:]
                         if a[i][j] != 0), None)
            if pair is None:
                break
            piv, j = pair
            diag = 2 * a[piv][j]
            for t in idx:
                a[piv][t] = a[t][piv] = a[piv][t] + a[j][t]
            a[piv][piv] = diag
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(piv)
        row_p = a[piv]
        for p, i in enumerate(idx):
            f = a[i][piv] / d
            if f:
                row_i = a[i]
                for j in idx[p:]:
                    row_i[j] -= f * row_p[j]
                    a[j][i] = row_i[j]
    return pos, neg, n - pos - neg


def alpha_pfaffian(q01, q10) -> Fraction:
    """Fixed-point invariant from the matrix blocks of an odd isomorphism.

    ``q10`` is the even-to-odd block and ``q01`` the odd-to-even block in
    an adapted (realified, positively oriented) basis; the invariant is
    Pf(q01^T * q10^(-1)).  The product must come out skew-symmetric,
    which holds exactly when the basis is adapted to an invariant form.
    """
    q01, q10 = mat(q01), mat(q10)
    if det(q10) == 0:
        raise ValueError("Q does not act isomorphically")
    prod = mat_mul(transpose(q01), inverse(q10))
    if not is_skew(prod):
        raise ValueError("basis not adapted: Q01^T*Q10^(-1) is not skew-symmetric")
    return pfaffian(prod)


def alpha_diagonal(c: Sequence, d: Sequence) -> Fraction:
    """Closed form of the fixed-point invariant for a diagonal action.

    For an odd operator sending the i-th even basis vector to (1+i)*d_i
    times the i-th odd one and back with coefficient (1+i)*c_i, the
    invariant is prod(c_i / d_i).
    """
    cf = [as_fraction(x) for x in c]
    df = [as_fraction(x) for x in d]
    if len(cf) != len(df):
        raise ValueError("dimension mismatch")
    if any(x == 0 for x in df):
        raise ValueError("Q not invertible on V_0")
    out = Fraction(1)
    for ci, di in zip(cf, df):
        out *= ci / di
    return out


def realify(zmat) -> Matrix:
    """Realification of a complex matrix given as (re, im) pairs.

    Each entry z = x + iy becomes the 2x2 block [[x, -y], [y, x]], so an
    n x n complex matrix becomes a 2n x 2n rational one.  Transpose of
    the result equals the realification of the conjugate transpose.
    """
    rows = list(zmat)
    n = len(rows)
    out = [[Fraction(0)] * (2 * len(rows[0]) if n else 0) for _ in range(2 * n)]
    for i, row in enumerate(rows):
        for j, (re, im) in enumerate(row):
            re, im = as_fraction(re), as_fraction(im)
            out[2 * i][2 * j] = re
            out[2 * i][2 * j + 1] = -im
            out[2 * i + 1][2 * j] = im
            out[2 * i + 1][2 * j + 1] = re
    return tuple(tuple(row) for row in out)


def realified_diagonal_action(c: Sequence, d: Sequence) -> tuple[Matrix, Matrix]:
    """Blocks (q01, q10) of the realified diagonal model with weights c, d.

    The complex action is q10 = (1+i) diag(d), q01 = (1+i) diag(c); both
    blocks are returned realified, ready for :func:`alpha_pfaffian`.
    """
    n = len(c)
    if len(d) != n:
        raise ValueError("dimension mismatch")

    def diag_pairs(vals):
        return [
            [(vals[i], vals[i]) if i == j else (0, 0) for j in range(n)]
            for i in range(n)
        ]

    return realify(diag_pairs(list(c))), realify(diag_pairs(list(d)))
