"""Exact rational linear algebra: Pfaffians and fixed-point invariants.

Matrices are plain sequences of sequences of values accepted by
``fractions.Fraction``; every routine returns exact rationals.  Sizes stay
in the dozens and storage is dense.  Each public matrix routine
(``det``, ``pfaffian``, ``inertia``, ``mat_mul``, ``alpha_pfaffian``)
reads each operand once, through one boundary, ``_integer_rows``: a
single pass that converts every entry (ints and Fractions by
``as_integer_ratio()``, any other value by ``as_fraction``, so a float or
a bool is refused), then checks that the rows have one length, and
returns the matrix as integer rows over one scale, the lcm of its
denominators.  Behind it the
kernels see integer rows only and never convert again: the private
``_det``, ``_skew`` and ``_pfaffian``, and the unchecked integer kernels
``integer_mat_mul`` and ``integer_inertia``, which other modules may call
directly.  ``mat`` builds the stored Fraction matrices that other modules
keep (a pair's Gram matrix); no routine here reads its operands through it.

Determinants and Pfaffians come from fraction-free eliminations on those
integer rows: every step divides exactly by the previous pivot, so the
inner loops do integer arithmetic only.  ``_det`` is Bareiss' elimination
and serves ``det``, and its skew analogue ``_pfaffian`` serves
``pfaffian``.  ``mat_mul`` multiplies the integer rows of its operands
with ``integer_mat_mul`` and makes one ``Fraction`` per entry.  Symmetric
congruence elimination (``integer_inertia``, behind the validating
``inertia``) gives the inertia of a quadratic form.  ``sparse_form`` is
the one evaluation of a bilinear form v^T * G * w, on the supports of v
and w; ``form`` is its validating boundary.  ``extend_echelon`` is the one
rank kernel: it decides the independence of a sparse integer row from an
echelon that the caller keeps, by one fraction-free reduction.

Every matrix, row and result that a call makes is a list, or a tuple
built from a list, never from a generator: ``exactvalue`` says why, and
these routines are called many times in a row by ``verify`` and by the
benchmark's kernels.

The fixed-point invariant of an odd isomorphism acting on a (2n|2n)-
dimensional space is computed two ways:

* ``alpha_pfaffian`` -- the Pfaffian of Q01^T * Q10^(-1) in an adapted
  real basis, evaluated without an inverse through the congruence
  identity Pf(B * A * B^T) = det(B) * Pf(A) as Pf((Q01 * Q10)^T) / det(Q10),
  with the product formed once from the integer rows of the blocks, and
  det(Q10) from the same rows of Q10;
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

from .exactvalue import as_fraction, scaled_ratios

Matrix = tuple[tuple[Fraction, ...], ...]


def _integer_rows(m) -> tuple[list[list[int]], int]:
    """The boundary of every routine here: the matrix m as integer rows
    times d, and d, the lcm of the denominators of its entries (1 when
    there are none).  Every entry is converted before the shape is
    checked, so a float or a bool is reported before a ragged row."""
    ratios = [[x.as_integer_ratio() if type(x) in (int, Fraction)
               else as_fraction(x).as_integer_ratio() for x in row] for row in m]
    if ratios and any(len(row) != len(ratios[0]) for row in ratios):
        raise ValueError("ragged matrix")
    return scaled_ratios(ratios)


def mat(rows) -> Matrix:
    """The matrix-like nested sequence ``rows`` as a tuple of tuples of
    Fractions, read through the same boundary as every routine here."""
    a, d = _integer_rows(rows)
    return tuple([tuple([Fraction(x, d) for x in row]) for row in a])


def integer_mat_mul(a, b) -> list[list[int]]:
    """The product of two integer matrices of matching shapes, unchecked."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _check_square(a: list, what: str) -> None:
    if a and len(a[0]) != len(a):
        raise ValueError(f"{what} of non-square matrix")


def mat_mul(a, b) -> Matrix:
    """The product a * b: each operand is read as integer rows over the
    lcm da or db of its denominators, and each entry is one integer dot
    product over da * db."""
    a, da = _integer_rows(a)
    b, db = _integer_rows(b)
    if a and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    d = da * db
    return tuple([tuple([Fraction(x, d) for x in row]) for row in integer_mat_mul(a, b)])


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
    passes through :func:`as_fraction`, which refuses a float or a bool,
    so all-integer input gives an ``int`` and any ``Fraction`` gives a
    ``Fraction`` (or ``0`` when ``v`` or ``w`` is zero).  The coordinates
    are checked here and their supports handed to :func:`sparse_form`, so
    a sparse vector costs only its support.
    """
    vv = [x if type(x) is int else as_fraction(x) for x in v]
    ww = [x if type(x) is int else as_fraction(x) for x in w]
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


def _det(a: list[list[int]]) -> int:
    """The determinant of the square integer rows a, which are left intact,
    by Bareiss' fraction-free elimination (Bareiss 1968).

    Each step moves the first row r whose leading entry p is nonzero to
    the top, which costs the sign (-1)^r, and drops that row and the
    leading column: every other row becomes
    row[c] = (p * row[c] - f * top[c]) // prev on the columns after the
    leading one, where f is the row's leading entry and prev the previous
    pivot.  By Sylvester's identity each entry is then a minor of a, so the
    division is exact, and the last pivot, signed, is det(a).  A column
    with no pivot makes the determinant 0.
    """
    sign, prev = 1, 1
    while a:
        r = next((r for r, row in enumerate(a) if row[0]), None)
        if r is None:
            return 0
        if r % 2:
            sign = -sign
        top = a[r]
        p, tail = top[0], top[1:]
        a = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
             for row in a if row is not top]
        prev = p
    return sign * prev


def det(m) -> Fraction:
    """Exact determinant by Bareiss' fraction-free elimination.

    The matrix is read as integer rows over the lcm d of its denominators,
    every step divides exactly by the previous pivot, and the determinant
    is the signed last pivot over d^n.
    """
    a, d = _integer_rows(m)
    _check_square(a, "determinant")
    return Fraction(_det(a), d ** len(a))


def _skew(m) -> bool:
    """Whether the integer rows m are square and skew-symmetric."""
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
    Fraction-free skew elimination: the matrix is read as integer rows
    times the lcm L of its denominators, and the skew test runs on those
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
    a, scale = _integer_rows(m)
    _check_even(len(a))
    if not _skew(a):
        raise ValueError("matrix is not skew-symmetric")
    return Fraction(_pfaffian(a), scale ** (len(a) // 2))


def inertia(sym) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric rational matrix.

    The matrix is read as integer rows times the lcm of its denominators,
    which keeps the inertia, and handed to :func:`integer_inertia`.
    """
    a, _ = _integer_rows(sym)
    _check_square(a, "inertia")
    n = len(a)
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
    a01, d01 = _integer_rows(q01)
    a10, d10 = _integer_rows(q10)
    _check_square(a10, "determinant")
    d = _det(a10)
    if d == 0:
        raise ValueError("Q does not act isomorphically")
    n = len(a10)
    if len(a01) != n or (a01 and len(a01[0]) != n):
        raise ValueError("dimension mismatch")
    # Pf(B A B^T) = det(B) Pf(A); A = Q01^T Q10^(-1), B = Q10^T give B A B^T = (Q01 Q10)^T,
    # here on the integer product of the two blocks' rows, over (d01 d10)^(n/2), and
    # det(Q10) = d / d10^n from the same rows
    product = list(zip(*integer_mat_mul(a01, a10)))
    if not _skew(product):
        raise ValueError("basis not adapted: Q01^T*Q10^(-1) is not skew-symmetric")
    _check_even(n)
    return Fraction(_pfaffian(product) * d10 ** n, (d01 * d10) ** (n // 2) * d)


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
        return tuple([tuple(row) for row in out])

    return realified(c), realified(d)
