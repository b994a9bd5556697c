import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervol import exactnum
from supervol.exactnum import (
    alpha_diagonal,
    alpha_pfaffian,
    extend_echelon,
    inertia,
    mat_mul,
    pfaffian,
    realified_diagonal_action,
)
from supervol.exactvalue import as_fraction, integer_scaled


def det_cofactor(m):
    """Independent oracle: determinant by exact cofactor expansion."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * det_cofactor(minor)
    return total


def random_skew(n, rng, density=1.0, max_den=4):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                x = Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
                entries[i][j] = x
                entries[j][i] = -x
    return entries


def perfect_matchings(idx):
    if not idx:
        yield []
        return
    first, rest = idx[0], idx[1:]
    for k, partner in enumerate(rest):
        for tail in perfect_matchings(rest[:k] + rest[k + 1:]):
            yield [(first, partner)] + tail


def permutation_sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def pfaffian_matchings(m):
    """Independent oracle (n <= 8): the sum over perfect matchings
    {(i1, j1), ..., (ik, jk)}, i < j, of sgn(i1 j1 ... ik jk) * prod a[i][j]."""
    total = Fraction(0)
    for matching in perfect_matchings(list(range(len(m)))):
        term = Fraction(permutation_sign([x for pair in matching for x in pair]))
        for i, j in matching:
            term *= Fraction(m[i][j])
        total += term
    return total


def test_pfaffian_2x2_normalization():
    assert pfaffian([[0, 1], [-1, 0]]) == 1


def test_pfaffian_block_multiplicativity():
    m = [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -3, 0]]
    assert pfaffian(m) == 6


def test_pfaffian_empty():
    assert pfaffian([]) == 1


def test_pfaffian_odd_dimension():
    with pytest.raises(ValueError, match="odd dimension"):
        pfaffian([[0]])


def test_pfaffian_rejects_non_skew():
    with pytest.raises(ValueError, match="skew"):
        pfaffian([[0, 1], [1, 0]])


def test_pfaffian_squared_is_determinant():
    rng = random.Random(7)
    for _ in range(30):
        n = 2 * rng.randint(1, 3)
        m = random_skew(n, rng)
        assert pfaffian(m) ** 2 == det_cofactor(m)


@pytest.mark.parametrize("density", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("max_den", [1, 4])
def test_pfaffian_matches_matching_oracle(density, max_den):
    rng = random.Random(int(density * 100) + max_den)
    for n in range(0, 9, 2):
        for _ in range(6):
            m = random_skew(n, rng, density, max_den)
            assert pfaffian(m) == pfaffian_matchings(m)


def test_pfaffian_zero_pivots():
    rng = random.Random(23)
    for n in (4, 6, 8):
        for _ in range(5):
            m = random_skew(n, rng)
            m[0][1] = m[1][0] = Fraction(0)
            assert pfaffian(m) == pfaffian_matchings(m)
            # a zero row makes the matrix singular
            for j in range(n):
                m[0][j] = m[j][0] = Fraction(0)
            assert pfaffian(m) == pfaffian_matchings(m) == 0
    # first pairing partner far from the pivot row: Pf = -a[0][2] * a[1][3]
    m = [[0, 0, 2, 0], [0, 0, 0, 3], [-2, 0, 0, 0], [0, -3, 0, 0]]
    assert pfaffian(m) == pfaffian_matchings(m) == -6


def test_pfaffian_squared_is_determinant_large():
    rng = random.Random(29)
    for n in (12, 16, 20):
        m = random_skew(n, rng)
        assert pfaffian(m) ** 2 == exactnum.det(m)


def test_inertia_examples():
    assert inertia([[3, 0, 0], [0, 0, 0], [0, 0, -1]]) == (1, 1, 1)
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    assert inertia([]) == (0, 0, 0)
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)
    assert inertia([[2, -1, 0], [-1, 2, 0], [0, 0, -2]]) == (2, 1, 0)  # g3 Gram
    # degenerate: the third row is the sum of the first two
    assert inertia([[1, 2, 3], [2, 1, 3], [3, 3, 6]]) == (1, 1, 1)
    assert inertia([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == (1, 2, 0)
    with pytest.raises(ValueError, match="not symmetric"):
        inertia([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="non-square"):
        inertia([[1, 0]])


def test_inertia_congruence_invariance():
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 5)
        diag = [Fraction(rng.choice((-2, -1, 0, 0, 1, 3))) for _ in range(n)]
        expected = (sum(d > 0 for d in diag), sum(d < 0 for d in diag),
                    sum(d == 0 for d in diag))
        p = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        if exactnum.det(p) == 0:
            continue
        a = [[d if i == j else Fraction(0) for j, d in enumerate(diag)]
             for i in range(n)]
        assert inertia(mat_mul(mat_mul(list(zip(*p)), a), p)) == expected
        checked += 1


def random_matrix(rows, cols, rng, density=1.0, max_den=1):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, max_den))
             if rng.random() < density else Fraction(0) for _ in range(cols)]
            for _ in range(rows)]


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for density, max_den in itertools.product((1.0, 0.4), (1, 9)):
        for _ in range(20):
            n = rng.randint(1, 5)
            m = random_matrix(n, n, rng, density, max_den)
            assert exactnum.det(m) == det_cofactor(m)
        for n in range(2, 6):
            # zero leading entries force row swaps
            m = random_matrix(n, n, rng, density, max_den)
            for row in m[:-1]:
                row[0] = Fraction(0)
            m[-1][0] = Fraction(rng.choice((-3, 1, 2)), rng.randint(1, max_den))
            assert exactnum.det(m) == det_cofactor(m)
            # singular: the last row is a rational combination of the others
            m = random_matrix(n, n, rng, density, max_den)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, max_den))
            m[-1] = [c * x + y for x, y in zip(m[0], m[-2])]
            assert exactnum.det(m) == det_cofactor(m) == 0


def test_det_scales_once_and_stops_at_a_column_without_pivot(monkeypatch):
    calls = []
    real = exactnum.integer_scaled

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(exactnum, "integer_scaled", counted)
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert exactnum.det(m) == Fraction(1, 14) - Fraction(1, 15) == det_cofactor(m)
    assert len(calls) == 1
    assert exactnum.det([]) == 1
    assert exactnum.det([[0, 1, 2], [0, 3, 4], [0, 5, 7]]) == 0
    assert exactnum.det([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0


def rank_oracle(m):
    """The largest k with a nonzero k x k minor, by cofactor expansion."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if det_cofactor([[m[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def echelon_rank(m):
    """The rank of m as the number of its rows that ``extend_echelon``
    accepts, each row scaled to integers (a positive scale keeps it)."""
    rows = []
    return sum(extend_echelon(rows, [(j, x) for j, x in enumerate(ints) if x])
               for [ints], _ in (integer_scaled([row]) for row in m))


@pytest.mark.parametrize("max_den", [1, 9])
def test_rank_matches_minor_oracle(max_den):
    rng = random.Random(37 + max_den)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rows, cols, rng, rng.choice((1.0, 0.5, 0.2)), max_den)
        if rng.random() < 0.3:
            m[rng.randrange(rows)] = [Fraction(0)] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in m:
                row[j] = Fraction(0)
        if rows > 1 and rng.random() < 0.3:
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
        assert echelon_rank(m) == rank_oracle(m), m
    assert echelon_rank([]) == 0
    assert echelon_rank([[0, 0, 0]]) == 0
    assert echelon_rank([[0], [0]]) == 0
    assert echelon_rank([[0, 1], [0, 2], [0, 3]]) == 1
    assert echelon_rank([[0, 0, 1], [1, 0, 0]]) == 2
    assert echelon_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1


def test_extend_echelon_matches_rank_oracle():
    """Row by row, a row is accepted exactly when it raises the rank of the
    rows accepted before it; a planted integer combination of accepted
    rows is rejected and leaves the echelon as it was."""
    rng = random.Random(53)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(cols)] for _ in range(rows)]
        echelon, kept = [], []
        for row in m:
            accepted = extend_echelon(echelon, [(j, x) for j, x in enumerate(row) if x])
            assert accepted == (rank_oracle(kept + [row]) == len(kept) + 1), (kept, row)
            if accepted:
                kept.append(row)
        assert len(echelon) == len(kept) == rank_oracle(m)
        if kept:
            coeffs = [rng.randint(-4, 4) for _ in kept]
            planted = [sum(c * row[j] for c, row in zip(coeffs, kept)) for j in range(cols)]
            before = [(p, dict(r)) for p, r in echelon]
            assert not extend_echelon(echelon, [(j, x) for j, x in enumerate(planted) if x])
            assert echelon == before
    echelon = []
    assert extend_echelon(echelon, [(0, 2), (3, -1)]) and extend_echelon(echelon, [(1, 1), (3, 4)])
    assert not extend_echelon(echelon, [(0, 6), (1, -2), (3, -11)])  # 3 * first - 2 * second
    assert not extend_echelon(echelon, [])
    assert extend_echelon(echelon, [(0, 6), (1, -2), (3, -10)]) and len(echelon) == 3


skew_fractions = st.integers(min_value=0, max_value=4).flatmap(
    lambda half: st.lists(
        st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-9, max_value=9, max_denominator=9)),
        min_size=half * (2 * half - 1), max_size=half * (2 * half - 1))
    .map(lambda upper: skew_from_upper(2 * half, upper)))


def skew_from_upper(n, upper):
    m = [[Fraction(0)] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = next(entries)
            m[j][i] = -m[i][j]
    return m


@settings(max_examples=80, deadline=None)
@given(skew_fractions)
def test_pfaffian_property_against_matchings_and_det(m):
    pf = pfaffian(m)
    assert pf == pfaffian_matchings(m)
    assert pf ** 2 == exactnum.det(m)


def test_pfaffian_congruence_scaling():
    rng = random.Random(13)
    for _ in range(20):
        n = 2 * rng.randint(1, 3)
        m = random_skew(n, rng)
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        conj = mat_mul(mat_mul(list(zip(*p)), m), p)
        assert pfaffian(conj) == det_cofactor(p) * pfaffian(m)


def test_mat_mul_shape_check():
    assert mat_mul([[1, 2]], [[3], [4]]) == ((11,),)
    assert mat_mul([], [[1]]) == ()
    for a, b in (([[1]], []), ([[1, 2]], [[1, 2]]), ([[1]], [[1], [2]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_mul(a, b)


def mat_mul_oracle(a, b):
    """The product by the triple loop, one Fraction product and sum at a time."""
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    return tuple(tuple(sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(inner)),
                           Fraction(0)) for j in range(cols)) for i in range(rows))


def test_mat_mul_matches_triple_loop_oracle():
    rng = random.Random(13)

    def entry():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 9))

    shapes = [(0, 3, 2), (3, 0, 0), (2, 3, 0), (1, 1, 1), (4, 1, 3)]
    shapes += [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(60)]
    for rows, inner, cols in shapes:
        a = [[entry() for _ in range(inner)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(inner)]
        product = mat_mul(a, b)
        assert product == mat_mul_oracle(a, b), (a, b)
        assert len(product) == rows
        assert all(type(x) is Fraction for row in product for x in row)
    # a k x 0 left operand times the empty right operand gives k empty rows
    assert mat_mul([[], []], []) == ((), ())
    # int and string input is scaled like Fractions
    assert mat_mul([[1, "1/2"]], [["2/3"], [-4]]) == ((Fraction(-4, 3),),)


def test_integer_mat_mul_is_the_integer_triple_loop():
    rng = random.Random(29)
    for _ in range(60):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        a = [[rng.randint(-50, 50) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(inner)]
        product = exactnum.integer_mat_mul(a, b)
        assert product == [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
                           for i in range(rows)]
        assert all(type(x) is int for row in product for x in row)
    # k x 0 times the empty 0-row operand: k empty rows; 0 x k times k x m: no rows
    assert exactnum.integer_mat_mul([[], [], []], []) == [[], [], []]
    assert exactnum.integer_mat_mul([], [[1, 2], [3, 4]]) == []
    assert exactnum.integer_mat_mul([[1, 2]], [[], []]) == [[]]


def test_alpha_pfaffian_regular_module():
    # non-realified 1x1 blocks fail the skewness check; realified they give 1
    with pytest.raises(ValueError, match="basis not adapted"):
        alpha_pfaffian([[3]], [[3]])
    q01, q10 = realified_diagonal_action([1], [1])
    assert alpha_pfaffian(q01, q10) == 1


def test_alpha_pfaffian_diagonal_examples():
    q01, q10 = realified_diagonal_action([1, 2], [1, 1])
    assert alpha_pfaffian(q01, q10) == 2
    q01, q10 = realified_diagonal_action([3], [3])
    assert alpha_pfaffian(q01, q10) == 1


def test_alpha_pfaffian_singular_block():
    q01, q10 = realified_diagonal_action([1], [0])
    with pytest.raises(ValueError, match="does not act isomorphically"):
        alpha_pfaffian(q01, q10)


def test_alpha_pfaffian_shape_mismatch():
    q01, q10 = realified_diagonal_action([1], [1])
    for bad in (q01 + ((0, 0),), [row + (0,) for row in q01], [], [[1]]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            alpha_pfaffian(bad, q10)


def test_alpha_pfaffian_on_non_diagonal_adapted_bases():
    # Q01 = (A * Q10)^T makes Q01^T * Q10^(-1) = A for any invertible Q10
    rng = random.Random(23)
    for n in (2, 4, 6):
        for _ in range(5):
            a = random_skew(n, rng)
            q10 = [[0]]
            while det_cofactor(q10) == 0:
                q10 = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                       for _ in range(n)]
            q01 = list(zip(*mat_mul(a, q10)))
            assert alpha_pfaffian(q01, q10) == pfaffian(a)


def test_alpha_diagonal_examples():
    assert alpha_diagonal([1, 1], [1, 1]) == 1
    assert alpha_diagonal([2, 3], [1, 1]) == 6
    with pytest.raises(ValueError, match="not invertible"):
        alpha_diagonal([1], [0])


def test_alpha_diagonal_of_no_pairs_and_of_mismatched_lengths():
    assert alpha_diagonal([], []) == 1 and type(alpha_diagonal([], [])) is Fraction
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        alpha_diagonal([1, 2], [1])


def test_alpha_diagonal_equal_rank_pairing():
    # the two-factor pairing (a_i+a_j | a_i-a_j) against its reciprocal
    rng = random.Random(3)
    for _ in range(10):
        a = [Fraction(x) for x in rng.sample(range(1, 30), 4)]
        c, d = [], []
        for i in range(2):
            for j in range(2, 4):
                c += [a[i] + a[j], a[i] - a[j]]
                d += [a[i] - a[j], a[i] + a[j]]
        assert alpha_diagonal(c, d) == 1


def test_alpha_agreement_on_realified_diagonal_models():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 4)
        c = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
        d = [Fraction(rng.choice([x for x in range(-8, 9) if x]), rng.randint(1, 3))
             for _ in range(n)]
        q01, q10 = realified_diagonal_action(c, d)
        assert alpha_pfaffian(q01, q10) == alpha_diagonal(c, d)


def test_alpha_multiplicative_over_direct_sums():
    rng = random.Random(19)
    for _ in range(10):
        c1 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
        d1 = [Fraction(rng.randint(1, 9)) for _ in range(2)]
        c2 = [Fraction(rng.randint(1, 9))]
        d2 = [Fraction(rng.randint(1, 9))]
        q01a, q10a = realified_diagonal_action(c1, d1)
        q01b, q10b = realified_diagonal_action(c2, d2)
        q01, q10 = realified_diagonal_action(c1 + c2, d1 + d2)
        assert (alpha_pfaffian(q01, q10)
                == alpha_pfaffian(q01a, q10a) * alpha_pfaffian(q01b, q10b))


def test_realified_diagonal_action_literal_blocks():
    # each (1+i) x becomes [[x, -x], [x, x]] on the diagonal (recorded values)
    z, h = Fraction(0), Fraction(1, 2)
    q01, q10 = realified_diagonal_action([1, h], [2, -3])
    assert q01 == ((1, -1, z, z), (1, 1, z, z), (z, z, h, -h), (z, z, h, h))
    assert q10 == ((2, -2, z, z), (2, 2, z, z), (z, z, -3, 3), (z, z, -3, -3))
    assert all(type(x) is Fraction for block in (q01, q10) for row in block for x in row)
    assert realified_diagonal_action([], []) == ((), ())
    with pytest.raises(ValueError, match="dimension mismatch"):
        realified_diagonal_action([1], [1, 2])


def test_float_input_rejected():
    with pytest.raises(TypeError, match="exact"):
        as_fraction(0.5)


def test_pfaffian_and_det_error_contract():
    # odd dimension is reported before skew-symmetry, even for a non-skew matrix
    with pytest.raises(ValueError, match="^Pfaffian undefined for odd dimension$"):
        pfaffian([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for m in ([[0, 1], [1, 0]], [[0, 1, 2], [-1, 0, 3]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError, match="^matrix is not skew-symmetric$"):
            pfaffian(m)
    with pytest.raises(ValueError, match="^determinant of non-square matrix$"):
        exactnum.det([[1, 2]])
    with pytest.raises(ValueError, match="^determinant of non-square matrix$"):
        exactnum.det([[]])


def test_ragged_and_float_input_contract():
    # entries are converted before the shape is checked, so a float wins
    routines = (pfaffian, exactnum.det, inertia,
                lambda m: mat_mul(m, [[1], [1]]), lambda m: mat_mul([[1, 1]], m),
                lambda m: alpha_pfaffian(m, [[1]]), lambda m: alpha_pfaffian([[1]], m))
    for routine in routines:
        with pytest.raises(ValueError, match="^ragged matrix$"):
            routine([[0, 1], [1]])
        with pytest.raises(TypeError, match="^floating point input rejected: results must be exact$"):
            routine([[0, 0.5], [-0.5, 0]])
        with pytest.raises(TypeError, match="exact"):
            routine([[0, 0.5], [1]])


def test_alpha_pfaffian_error_contract():
    singular = [[1, 0], [0, 0]]
    # isomorphism first, then dimensions, then adaptedness
    for q01 in ([[0, 1], [-1, 0]], [[1]], [[1, 2, 3]]):
        with pytest.raises(ValueError, match="^Q does not act isomorphically$"):
            alpha_pfaffian(q01, singular)
    for q01 in ([[1]], [[0, 1, 0], [-1, 0, 0]], [[1, 0]], []):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            alpha_pfaffian(q01, [[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="^determinant of non-square matrix$"):
        alpha_pfaffian([[1]], [[1, 2]])
    adapted = "^basis not adapted: Q01\\^T\\*Q10\\^\\(-1\\) is not skew-symmetric$"
    for q01, q10 in (([[1, 0], [0, 1]], [[1, 0], [0, 2]]), ([[1]], [[1]])):
        with pytest.raises(ValueError, match=adapted):
            alpha_pfaffian(q01, q10)
    # a skew product of odd size reaches the Pfaffian's own error
    with pytest.raises(ValueError, match="^Pfaffian undefined for odd dimension$"):
        alpha_pfaffian([[0]], [[1]])
    assert alpha_pfaffian([], []) == 1


def test_public_routines_normalize_once(monkeypatch):
    calls = []
    real = exactnum.mat

    def counted(rows):
        calls.append(rows)
        return real(rows)

    skew = [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]
    q01, q10 = realified_diagonal_action([1, Fraction(2, 3)], [3, Fraction(-1, 2)])
    monkeypatch.setattr(exactnum, "mat", counted)
    for routine, args, count in ((pfaffian, (skew,), 1), (alpha_pfaffian, (q01, q10), 2),
                                 (exactnum.det, (skew,), 1), (mat_mul, (skew, skew), 2)):
        calls.clear()
        routine(*args)
        assert len(calls) == count, routine.__name__
