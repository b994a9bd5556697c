"""Exact rational linear algebra: Pfaffians and fixed-point invariants.

Matrices are plain sequences of sequences of values accepted by
``fractions.Fraction``; every routine returns exact rationals.  Sizes stay
in the dozens and storage is dense.  Each public routine normalizes its
input with ``mat`` once, at the boundary, and hands the result to
kernels that never normalize again: the private ``_det``, ``_skew`` and
``_pfaffian``, and the unchecked integer kernels ``integer_mat_mul`` and
``integer_inertia``, which other modules may call directly.  Determinants
and Pfaffians come from fraction-free kernels: the matrix is scaled to
integers once by an lcm of its denominators, and every elimination step
divides exactly by the previous pivot, so the inner loops do integer
arithmetic only.  One Bareiss elimination, ``_det`` on one ``integer_scaled``
matrix, serves ``det``, and its skew analogue serves ``pfaffian``.
``mat_mul`` scales each operand to integers once, multiplies them with
``integer_mat_mul`` and makes one ``Fraction`` per entry.
Symmetric congruence elimination (``integer_inertia``, behind the
validating ``inertia``) gives the inertia of a quadratic form.
``sparse_form`` is the one evaluation of a bilinear form v^T * G * w, on
the supports of v and w; ``form`` is its validating boundary, as ``det``
is for ``_det``.  ``extend_echelon`` is the one rank kernel: it decides
the independence of a sparse integer row from an echelon that the
caller keeps, by one fraction-free reduction.

The fixed-point invariant of an odd isomorphism acting on a (2n|2n)-
dimensional space is computed two ways:

* ``alpha_pfaffian`` -- the Pfaffian of Q01^T * Q10^(-1) in an adapted
  real basis, evaluated without an inverse through the congruence
  identity Pf(B * A * B^T) = det(B) * Pf(A) as Pf((Q01 * Q10)^T) / det(Q10),
  with the product formed once from the integer-scaled blocks;
* ``alpha_diagonal`` -- the closed product prod(c_i/d_i) for a diagonal
  complex action, after realification.

The two must agree on realified diagonal models; the test suite and the
``verify`` check ``alpha-pfaffian-matches-diagonal-product`` check this
on random inputs.

The coercion and integer scaling that every module shares live in the
leaf module ``exactvalue``; this module loads only for the CLI verbs
``defect``, ``casimir`` and ``verify``, through ``rootsys``, ``sympair``
and ``verify``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import Sequence

from .exactvalue import as_fraction, integer_scaled

Matrix = tuple[tuple[Fraction, ...], ...]


def mat(rows) -> Matrix:
    """Normalize a matrix-like nested sequence to tuples of Fractions."""
    out = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def integer_mat_mul(a, b) -> list[list[int]]:
    """The product of two integer matrices of matching shapes, unchecked."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _check_product(a: Matrix, b: Matrix) -> None:
    if a and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")


def mat_mul(a, b) -> Matrix:
    """The product a * b: each operand is scaled to integers once, by the
    lcm da or db of its denominators, and each entry is one integer dot
    product over da * db."""
    a, b = mat(a), mat(b)
    _check_product(a, b)
    ai, da = integer_scaled(a)
    bi, db = integer_scaled(b)
    d = da * db
    return tuple(tuple(Fraction(x, d) for x in row) for row in integer_mat_mul(ai, bi))


def sparse_form(gram, v, w) -> int | Fraction:
    """The bilinear form v^T * gram * w on the supports of v and w: their
    nonzero coordinates as pairs (i, x), unchecked, so the cost is
    |v| * |w| products whatever the dimension."""
    total = 0
    for i, x in v:
        row = gram[i]
        for j, y in w:
            total += x * row[j] * y
    return total


def form(gram, v, w) -> int | Fraction:
    """The bilinear form v^T * gram * w in exact arithmetic.

    ``gram`` holds exact entries, as from :func:`mat` or as ints; ``int``
    coordinates of ``v`` and ``w`` stay ``int`` and every other coordinate
    passes through :func:`as_fraction`, so all-integer input gives an
    ``int`` and any ``Fraction`` gives a ``Fraction`` (or ``0`` when ``v``
    or ``w`` is zero).  The coordinates are checked here and their
    supports handed to :func:`sparse_form`, so a sparse vector costs only
    its support.
    """
    vv = [x if isinstance(x, int) else as_fraction(x) for x in v]
    ww = [x if isinstance(x, int) else as_fraction(x) for x in w]
    if len(vv) != len(gram) or len(ww) != len(gram):
        raise ValueError("dimension mismatch")
    return sparse_form(gram, [(i, x) for i, x in enumerate(vv) if x],
                       [(j, y) for j, y in enumerate(ww) if y])


def extend_echelon(rows: list, v) -> bool:
    """Append the integer row v, given by its support (its nonzero
    coordinates as pairs (i, x)), to the echelon ``rows`` when it is
    independent of the rows there; say whether it was.

    ``rows`` starts empty and holds pairs (pivot, row), each row a dict of
    its nonzero coordinates that is zero at the pivots of the rows before
    it.  v is reduced against each row in turn: with b its entry at the
    row's pivot and a the row's own, v becomes (a * v - b * row) / g for
    g = gcd(a, b), which clears v at that pivot and keeps it zero at the
    earlier ones.  The remainder is zero exactly when v lies in the span
    of the rows; otherwise it joins them, divided by the gcd of its
    entries, with its first position as pivot.  Each call is one
    reduction, whatever the number of rows before it.
    """
    v = dict(v)
    for pivot, row in rows:
        b = v.get(pivot)
        if b:
            a = row[pivot]
            g = gcd(a, b)
            a, b = a // g, b // g
            v = {j: a * x for j, x in v.items()}
            for j, y in row.items():
                x = v.get(j, 0) - b * y
                if x:
                    v[j] = x
                else:
                    del v[j]
    if not v:
        return False
    g = gcd(*v.values())
    rows.append((min(v), {j: x // g for j, x in v.items()}))
    return True


def _det(m: Matrix) -> Fraction:
    """Bareiss' fraction-free elimination on m scaled to integers by the
    lcm d of its denominators.

    Pivot search and row swaps are those of Gaussian elimination.  With
    pivot p in the top row, every row below becomes
    row[c] = (p * row[c] - f * top[c]) // prev, where f is the row's entry
    in the pivot column and prev the previous pivot.  By Sylvester's
    identity each entry is then a minor of the scaled matrix, so the
    division is exact, and the last pivot, signed by the swaps, is its
    determinant d^n * det(m) (Bareiss 1968).  A column with no pivot
    makes the determinant 0.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of non-square matrix")
    rows, d = integer_scaled(m)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        top = rows[col][col:]
        p = top[0]
        for row in rows[col + 1:]:
            f = row[col]
            if f or p != prev:
                row[col:] = [(p * x - f * y) // prev for x, y in zip(row[col:], top)]
        prev = p
    return Fraction(sign * prev, d ** n)


def det(m) -> Fraction:
    """Exact determinant by Bareiss' fraction-free elimination.

    The matrix is scaled to integers once, by the lcm d of its
    denominators, every step divides exactly by the previous pivot, and
    the determinant is the signed last pivot over d^n.
    """
    return _det(mat(m))


def _skew(m) -> bool:
    """Whether the normalized or integer-scaled matrix m is square and
    skew-symmetric."""
    n = len(m)
    return (all(len(row) == n for row in m)
            and all(m[i][j] == -m[j][i] for i in range(n) for j in range(i, n)))


def _check_even(n: int) -> None:
    if n % 2 == 1:
        raise ValueError("Pfaffian undefined for odd dimension")


def _pfaffian(a: list[list[int]]) -> int:
    """Pfaffian of an even-sized skew-symmetric integer matrix, by the
    fraction-free skew elimination of :func:`pfaffian`."""
    sign, prev = 1, 1
    while a:
        top = a[0]
        pos = next((q for q in range(1, len(a)) if top[q]), None)
        if pos is None:
            return 0
        p = top[pos]
        if pos % 2 == 0:
            sign = -sign
        keep = [q for q in range(1, len(a)) if q != pos]
        row_k = [top[q] for q in keep]
        row_l = [a[pos][q] for q in keep]
        a = [[(p * x + row[0] * y - row[pos] * z) // prev
              for x, y, z in zip([row[q] for q in keep], row_l, row_k)]
             for row in (a[q] for q in keep)]
        prev = p
    return sign * prev


def pfaffian(m) -> Fraction:
    """Pfaffian of an even-sized skew-symmetric rational matrix.

    Sign convention: Pf([[0,1],[-1,0]]) = +1, and the Pfaffian of a
    direct sum of 2x2 blocks is the product of the block Pfaffians.
    Fraction-free skew elimination: the matrix is scaled to integers by
    the lcm L of its denominators, and the skew test runs on those
    integers (L > 0).  Index k, the first remaining one, is
    paired with the first remaining l that has p = a[k][l] != 0; moving l
    next to k costs the sign (-1)^(pos-1), where pos is l's position among
    the remaining indices after k.  Every other entry becomes
    (p * a[i][j] + a[i][k] * a[l][j] - a[i][l] * a[k][j]) // prev, with
    prev the previous pivot: after t steps each entry is the Pfaffian of
    the 2t + 2 indices made of the pivot pairs and (i, j), by the Pfaffian
    form of Sylvester's identity, so the division is exact and the last
    pivot, signed, is Pf(L * A) = L^(n/2) * Pf(A) (compare Rote 2001).
    O(n^3) integer operations at every size.
    """
    m = mat(m)
    _check_even(len(m))
    a, scale = integer_scaled(m)
    if not _skew(a):
        raise ValueError("matrix is not skew-symmetric")
    return Fraction(_pfaffian(a), scale ** (len(m) // 2))


def inertia(sym) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix.

    The matrix is scaled to integers by the lcm of its denominators, which
    keeps the inertia, and handed to :func:`integer_inertia`.
    """
    a, _ = integer_scaled(mat(sym))
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inertia of non-square matrix")
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    return integer_inertia(a)


def integer_inertia(a: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of a symmetric integer matrix, which is overwritten.

    Exact symmetric elimination: a nonzero diagonal pivot d splits off
    <d> and leaves its Schur complement, which is congruent to the rest
    (Sylvester's law of inertia).  Only the rows with a nonzero entry in
    the pivot column change, by the exact multipliers a[i][piv] / d, so
    entries stay ints until such an update.  When every remaining
    diagonal entry is 0 but some a[i][j] is not, the congruence
    e_i += e_j makes the pivot a[i][i] = 2 a[i][j] nonzero; leading minors
    alone would stop at such a zero minor.
    """
    n = len(a)
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
            if a[i][piv]:
                f = Fraction(a[i][piv], d)
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
    d = _det(q10)
    if d == 0:
        raise ValueError("Q does not act isomorphically")
    if len(q01) != len(q10):
        raise ValueError("dimension mismatch")
    _check_product(q01, q10)
    # Pf(B A B^T) = det(B) Pf(A); A = Q01^T Q10^(-1), B = Q10^T give B A B^T = (Q01 Q10)^T,
    # here on the integer product of the two scaled blocks, over (d01 d10)^(n/2)
    a01, d01 = integer_scaled(q01)
    a10, d10 = integer_scaled(q10)
    product = list(zip(*integer_mat_mul(a01, a10)))
    if not _skew(product):
        raise ValueError("basis not adapted: Q01^T*Q10^(-1) is not skew-symmetric")
    _check_even(len(product))
    return Fraction(_pfaffian(product), (d01 * d10) ** (len(product) // 2)) / d


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
    return prod(cf, start=Fraction(1)) / prod(df)


def realified_diagonal_action(c: Sequence, d: Sequence) -> tuple[Matrix, Matrix]:
    """Blocks (q01, q10) of the realified diagonal model with weights c, d.

    The complex action is q10 = (1+i) diag(d), q01 = (1+i) diag(c); each
    entry (1+i) x is returned as the real 2x2 block [[x, -x], [x, x]],
    ready for :func:`alpha_pfaffian`.
    """
    n = len(c)
    if len(d) != n:
        raise ValueError("dimension mismatch")

    def realified(vals) -> Matrix:
        out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i, x in enumerate(vals):
            x = as_fraction(x)
            out[2 * i][2 * i], out[2 * i][2 * i + 1] = x, -x
            out[2 * i + 1][2 * i], out[2 * i + 1][2 * i + 1] = x, x
        return tuple(map(tuple, out))

    return realified(c), realified(d)
