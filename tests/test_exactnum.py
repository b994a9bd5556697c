import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervol import exactnum
from supervol.exactnum import (
    alpha_diagonal,
    alpha_pfaffian,
    inertia,
    mat_mul,
    pfaffian,
    realified_diagonal_action,
    realify,
    transpose,
)


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
        assert inertia(mat_mul(mat_mul(transpose(p), a), p)) == expected
        checked += 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        assert exactnum.det(m) == det_cofactor(m)


def test_pfaffian_congruence_scaling():
    rng = random.Random(13)
    for _ in range(20):
        n = 2 * rng.randint(1, 3)
        m = random_skew(n, rng)
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        conj = mat_mul(mat_mul(transpose(p), m), p)
        assert pfaffian(conj) == det_cofactor(p) * pfaffian(m)


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


def test_alpha_diagonal_examples():
    assert alpha_diagonal([1, 1], [1, 1]) == 1
    assert alpha_diagonal([2, 3], [1, 1]) == 6
    with pytest.raises(ValueError, match="not invertible"):
        alpha_diagonal([1], [0])


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


def test_realify_examples():
    assert realify([[(0, 1)]]) == ((Fraction(0), Fraction(-1)),
                                   (Fraction(1), Fraction(0)))
    ident = [[(1, 0), (0, 0)], [(0, 0), (1, 0)]]
    assert realify(ident) == tuple(
        tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))
    assert realify([[(1, 1)]]) == ((Fraction(1), Fraction(-1)),
                                   (Fraction(1), Fraction(1)))


complex_entries = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(complex_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_realify_transpose_is_conjugate_transpose(zmat):
    n = len(zmat)
    conj_t = [[(zmat[j][i][0], -zmat[j][i][1]) for j in range(n)] for i in range(n)]
    assert transpose(realify(zmat)) == realify(conj_t)


def test_float_input_rejected():
    with pytest.raises(TypeError, match="exact"):
        exactnum.as_fraction(0.5)
