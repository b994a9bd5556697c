import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervol import exactnum, qlocal, verify
from supervol.qlocal import (
    alpha_subset,
    brute_c_table,
    c_bruteforce,
    c_closed,
    gaussian_binomials,
    gl_localization,
    localization_sum,
    random_params,
    seeded_param_vectors,
    validate_params,
)

# Distinct denominators, so the subset sums must scale by their lcm.
FRACTIONAL_PARAMS = tuple(Fraction(p, q) for p, q in (
    (1, 2), (-2, 3), (5, 4), (7, 6), (-3, 5), (11, 7), (-13, 9), (17, 10),
    (19, 11), (-23, 12), (29, 13), (-31, 14), (37, 15), (-41, 16)))


# Mixed signs and mixed int/Fraction entries.
MIXED_PARAMS = (3, Fraction(-1, 2), -4, Fraction(5, 3), -7, Fraction(-9, 4), 11)


def per_subset_sum(subsets, a, t):
    """The subset sum with one Fraction per subset, added one at a time:
    on a scaled to integers b and t = p/q, S contributes
    prod (q b_i - p b_j) / (q^(|S|(n-|S|)) prod (b_i - b_j))."""
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    scale = math.lcm(*(Fraction(x).denominator for x in a))
    b = [int(x * scale) for x in a]
    total = Fraction(0)
    for subset in subsets:
        outside = [b[j] for j in range(len(b)) if j not in subset]
        num = den = 1
        for i in subset:
            for y in outside:
                num *= q * b[i] - p * y
                den *= b[i] - y
        total += Fraction(num, den * q ** (len(subset) * len(outside)))
    return total


def test_validate_params_rejects_degenerate():
    half = Fraction(1, 2)
    for bad in ([0, 1], [Fraction(0)], ["0"], [1, 1], [3, 2, 3], [1, -1], [2, 3, -2],
                [half, -half]):
        with pytest.raises(ValueError, match="degenerate"):
            validate_params(bad)
    assert validate_params([1, 2, -4]) == (Fraction(1), Fraction(2), Fraction(-4))
    assert validate_params([half, Fraction(1, 3)]) == (half, Fraction(1, 3))


def test_seeded_param_vectors_are_valid_and_reproducible():
    first = seeded_param_vectors(8, 3, 42)
    second = seeded_param_vectors(8, 3, 42)
    assert first == second
    for a in first:
        validate_params(a)


def test_alpha_subset_examples():
    assert alpha_subset(set(), [1, 2]) == 1
    assert alpha_subset({0}, [1, 2]) == -3
    assert alpha_subset({1}, [1, 2]) == 3
    assert alpha_subset({0}, [1, 2]) + alpha_subset({1}, [1, 2]) == 0
    with pytest.raises(ValueError, match="out of range"):
        alpha_subset({5}, [1, 2])


def test_alpha_subset_matches_pfaffian_route():
    vectors = [seeded_param_vectors(n, 1, 300 + n)[0] for n in range(5)]
    vectors += [FRACTIONAL_PARAMS[:n] for n in range(5)]
    for a in vectors:
        n = len(a)
        for r in range(n + 1):
            for subset in itertools.combinations(range(n), r):
                pairs = [(a[i], a[j]) for i in subset for j in range(n) if j not in subset]
                odd = [x + y for x, y in pairs]
                even = [x - y for x, y in pairs]
                q01, q10 = exactnum.realified_diagonal_action(odd, even)
                value = alpha_subset(subset, a)
                assert value == exactnum.alpha_diagonal(odd, even)
                assert value == exactnum.alpha_pfaffian(q01, q10)


def test_c_bruteforce_examples():
    vectors = seeded_param_vectors(2, 3, 1)
    assert c_bruteforce(1, 2, vectors).consensus == 0
    vectors = seeded_param_vectors(4, 3, 1)
    report = c_bruteforce(2, 4, vectors)
    assert report.consensus == 2
    assert report.agrees
    for n in (1, 3, 5):
        vectors = seeded_param_vectors(n, 3, n)
        assert c_bruteforce(0, n, vectors).consensus == 1


def test_c_bruteforce_bounds():
    with pytest.raises(ValueError):
        c_bruteforce(3, 2, [])
    with pytest.raises(ValueError, match="at least one"):
        c_bruteforce(1, 2, [])
    with pytest.raises(ValueError, match="bounded"):
        c_bruteforce(1, 15, [tuple(range(1, 16))])


def test_c_closed_examples():
    assert c_closed(1, 3) == 1
    assert c_closed(1, 2) == 0
    assert c_closed(2, 5) == 2
    assert c_closed(2, 4) == 2
    assert c_closed(0, 9) == 1
    with pytest.raises(ValueError):
        c_closed(3, 2)


def test_c_closed_case_split():
    for n in range(21):
        for r in range(n + 1):
            value = c_closed(r, n)
            if n % 2 == 0 and r % 2 == 1:
                assert value == 0
            else:
                assert value == math.comb(n // 2, r // 2) > 0
            assert (value != 0) == (r * (n - r) % 2 == 0)


def test_brute_force_matches_closed_form():
    for n in range(9):
        vectors = seeded_param_vectors(n, 3, 100 + n)
        vectors += [FRACTIONAL_PARAMS[:n], tuple(x / 6 for x in vectors[0])]
        for r in range(n + 1):
            assert c_bruteforce(r, n, vectors).consensus == c_closed(r, n)


def test_recursion_cases_as_gaussian_binomials(monkeypatch):
    # [n r]_t obeys q-Pascal and the symmetry [n r]_t = [n n-r]_t, so a
    # comparison with it covers both recursions of C(r, n)
    # the table r -> r holds at (1, 1) but breaks C(0, 0) = 1, which the
    # recursion at (1, 1) reads; r = 0 is the c-table check's range
    identity = {(r, n): r for n in range(2) for r in range(n + 1)}
    assert identity[(1, 1)] == gaussian_binomials(1, -1)[1]
    assert verify.check_c_table(identity).detail.endswith("first (0, 0)")
    # an empty range is not a pass
    monkeypatch.setattr(verify, "CLOSED_FORM_MAX_N", 0)
    assert not verify.check_c_recursions(brute_c_table(1, 0, 3)).passed
    assert c_closed(2, 4) == gaussian_binomials(4, -1)[2] == 2
    broken = {**brute_c_table(4, 0, 3), (2, 4): 0}
    monkeypatch.setattr(verify, "CLOSED_FORM_MAX_N", 4)
    assert verify.check_c_recursions(broken).detail.endswith("1 failures, first (2, 4)")
    row = gaussian_binomials(3, -1)
    assert len(row) == 4
    assert row[0] == c_closed(0, 3) == 1  # r = 0 is the base row
    # symmetry at (r,n) = (1,3): C(1,3) = (-1)^2 C(2,3)
    assert c_closed(1, 3) == c_closed(2, 3) == 1
    assert row[1] == row[2] == 1
    # base case consistent with both recursions
    assert c_closed(1, 2) == c_closed(1, 1) - c_closed(0, 1) == 0
    [one, two] = gaussian_binomials(1, -1), gaussian_binomials(2, -1)
    assert two[1] == one[0] - one[1] == 0


def test_brute_table_is_gaussian_binomial_at_minus_one():
    table = brute_c_table(6, 7, 3)
    rows = [gaussian_binomials(n, -1) for n in range(7)]
    assert all(table[(r, n)] == rows[n][r] for n in range(1, 7) for r in range(1, n + 1))


def test_all_k_kernel_matches_per_r_sums():
    # n = 0 and n = 1 leave one half empty, odd n gives unequal halves, and
    # r = 0 and r = n keep a single side vector per half; up to n = 14 the
    # walk over the high half reaches full depth, and it prunes to other
    # rows for every r than for one
    every_n = (-1, 1, Fraction(-3, 7))
    for n in range(qlocal.MAX_N + 1):
        vectors = seeded_param_vectors(n, 2, 1100 + n) + [FRACTIONAL_PARAMS[:n]]
        ts = every_n + ((Fraction(5, 2), Fraction(2, 9)) if n <= 10 else ())
        for a, t in itertools.product(vectors, ts):
            sums = qlocal._fixed_point_sums(range(n + 1), validate_params(a), t)
            assert len(sums) == n + 1
            row = gaussian_binomials(n, t)
            for r, total in enumerate(sums):
                assert type(total) is Fraction
                assert total == localization_sum(r, n, a, t) == row[r], (a, r, t)


def test_kernel_sums_any_set_of_counts():
    # the halves keep only side vectors that can reach [min(ks), max(ks)],
    # and counts inside that range but outside ks get no total
    a = validate_params(MIXED_PARAMS[:7])
    for ks in ((0,), (7,), (0, 7), (3, 1), (2, 4, 5), (6, 2)):
        row = gaussian_binomials(7, -1)
        assert qlocal._fixed_point_sums(ks, a, Fraction(-1)) == [row[k] for k in ks]


def test_brute_table_matches_per_r_consensus():
    table = brute_c_table(9, 40, 2)
    assert set(table) == {(r, n) for n in range(10) for r in range(n + 1)}
    for n in range(10):
        vectors = seeded_param_vectors(n, 2, 40 + n)
        for r in range(n + 1):
            assert table[(r, n)] == c_bruteforce(r, n, vectors).consensus == c_closed(r, n)


def test_brute_table_raises_on_parameter_dependence(monkeypatch):
    real = qlocal._fixed_point_sums

    def sample_dependent(ks, a, t):
        sums = real(ks, a, t)
        # one sample at n = 5 is off at r = 2 only
        if len(a) == 5 and a == seeded_param_vectors(5, 3, 5)[1]:
            sums[2] += 1
        return sums

    monkeypatch.setattr(qlocal, "_fixed_point_sums", sample_dependent)
    assert brute_c_table(4, 0, 3) == {(r, n): c_closed(r, n) for n in range(5) for r in range(n + 1)}
    with pytest.raises(ValueError, match="parameter dependence detected"):
        brute_c_table(5, 0, 3)


def test_brute_table_errors():
    assert brute_c_table(-1, 0, 3) == {}
    with pytest.raises(ValueError, match="at least one"):
        brute_c_table(3, 0, 0)
    with pytest.raises(ValueError, match="bounded at n <= 14"):
        brute_c_table(15, 0, 1)


def test_gaussian_binomial_specialisations():
    for n in range(21):  # every 0 <= r <= n <= 20
        assert gaussian_binomials(n, -1) == [c_closed(r, n) for r in range(n + 1)]
        assert gaussian_binomials(n, 1) == [math.comb(n, r) for r in range(n + 1)]
    assert gaussian_binomials(4, 2)[2] == 35
    assert gaussian_binomials(2, Fraction(1, 2))[1] == Fraction(3, 2)


def test_gaussian_binomial_row_matches_product_formula():
    # [n r]_t = prod_{i<r} (1 - t^(n-i)) / (1 - t^(i+1)) away from the roots
    # of unity, a route that shares nothing with the q-Pascal pass
    for t in (Fraction(0), Fraction(2), Fraction(3, 4), Fraction(-7, 5), Fraction(-3)):
        for n in range(13):
            row = gaussian_binomials(n, t)
            assert all(type(x) is Fraction for x in row)
            assert row == [math.prod((1 - t ** (n - i)) / (1 - t ** (i + 1)) for i in range(r))
                           for r in range(n + 1)], (n, t)


def test_localization_sum_is_gaussian_binomial():
    ts = (-1, 0, 1, 2, Fraction(-3, 7), Fraction(5, 2))
    for n in range(9):
        vectors = seeded_param_vectors(n, 2, 700 + n) + [FRACTIONAL_PARAMS[:n]]
        for a in vectors:
            for r in range(n + 1):
                for t in ts:
                    assert localization_sum(r, n, a, t) == gaussian_binomials(n, t)[r], (a, r, t)


def test_localization_sum_matches_per_subset_fractions():
    ts = (-1, 0, 1, 2, Fraction(-3, 7), Fraction(5, 2))
    for n in range(8):  # n <= 3 gives the kernel halves of 0 or 1 positions
        vectors = [tuple(range(1, n + 1)), FRACTIONAL_PARAMS[:n], MIXED_PARAMS[:n]]
        vectors += seeded_param_vectors(n, 1, 800 + n)
        for a in vectors:
            for r in range(n + 1):
                for t in ts:
                    expected = per_subset_sum(itertools.combinations(range(n), r), a, t)
                    assert localization_sum(r, n, a, t) == expected, (a, r, t)


def test_localization_sum_matches_per_subset_fractions_up_to_the_bound():
    # The kernel's halves reach 7 positions only at n = 14, and a = 1..n has
    # zero pair factors at t = 2.  At r = n // 2 for n >= 13 the oracle takes
    # 20-140 ms a case, so there only a = 1..n runs at every t and the other
    # vectors run at t = -3/7.
    ts = (-1, 1, 2, 0, Fraction(-3, 7))
    for n in (8, 9, 13, 14):
        vectors = [tuple(range(1, n + 1)), FRACTIONAL_PARAMS[:n]]
        vectors += seeded_param_vectors(n, 1, 1000 + n)
        for r in sorted({0, 1, n // 2, n - 1, n}):
            for a, t in itertools.product(vectors, ts):
                if n >= 13 and r == n // 2 and a != vectors[0] and t != ts[-1]:
                    continue
                expected = per_subset_sum(itertools.combinations(range(n), r), a, t)
                assert localization_sum(r, n, a, t) == expected, (a, r, t)


def test_alpha_subset_matches_per_subset_fraction():
    for a in (FRACTIONAL_PARAMS[:7], MIXED_PARAMS, seeded_param_vectors(7, 1, 5)[0]):
        for k in range(4):
            for subset in itertools.combinations(range(7), k):
                assert alpha_subset(subset, a) == per_subset_sum([subset], a, -1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=7).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))),
       st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_localization_sum_property(nr, t, seed):
    n, r = nr
    [a] = seeded_param_vectors(n, 1, seed)
    assert localization_sum(r, n, a, t) == gaussian_binomials(n, t)[r]


def test_localization_sum_and_gaussian_binomial_errors():
    with pytest.raises(ValueError, match="n >= 0"):
        gaussian_binomials(-1, 2)
    for r, n in ((-1, 3), (4, 3)):
        with pytest.raises(ValueError, match="0 <= r <= n"):
            localization_sum(r, n, seeded_param_vectors(n, 1, 0)[0], 2)
    with pytest.raises(TypeError, match="exact"):
        gaussian_binomials(4, 0.5)
    with pytest.raises(TypeError, match="exact"):
        localization_sum(2, 4, [1, 2, 3, 5], 0.5)
    with pytest.raises(ValueError, match="bounded"):
        localization_sum(7, 15, range(1, 16), 2)
    with pytest.raises(ValueError, match="wrong length"):
        localization_sum(1, 3, [1, 2], 2)


def test_localization_sums_is_every_localization_sum():
    for n in range(len(MIXED_PARAMS) + 1):
        for a in seeded_param_vectors(n, 2, 900 + n) + [FRACTIONAL_PARAMS[:n], MIXED_PARAMS[:n]]:
            for t in (-1, 1, 0, Fraction(-3, 7), 2):
                sums = qlocal.localization_sums(n, a, t)
                assert sums == [localization_sum(r, n, a, t) for r in range(n + 1)], (a, t)
                assert all(type(total) is Fraction for total in sums)


def test_localization_sums_errors():
    # the parameters are checked first, then the bound, then the length
    with pytest.raises(ValueError, match="degenerate"):
        qlocal.localization_sums(15, [1, -1], 2)
    with pytest.raises(ValueError, match="bounded at n <= 14"):
        qlocal.localization_sums(15, [1, 2], 2)
    with pytest.raises(ValueError, match="wrong length"):
        qlocal.localization_sums(3, [1, 2], 2)
    with pytest.raises(ValueError, match="wrong length"):
        qlocal.localization_sums(-1, [], 2)
    with pytest.raises(TypeError, match="exact"):
        qlocal.localization_sums(2, [1, 2], 0.5)
    assert qlocal.localization_sums(0, [], 5) == [1]


def test_gl_localization_examples():
    assert gl_localization(1, 2, [1, 2]) == 2
    for n in (1, 2, 5):
        assert gl_localization(0, n, seeded_param_vectors(n, 1, 3)[0]) == 1
    for a in seeded_param_vectors(4, 3, 9):
        assert gl_localization(2, 4, a) == 6
    with pytest.raises(ValueError, match="bounded"):
        gl_localization(7, 15, range(1, 16))


def test_gl_localization_matches_binomials():
    for n in range(7):
        for a in seeded_param_vectors(n, 2, 50 + n):
            for r in range(n + 1):
                assert gl_localization(r, n, a) == math.comb(n, r)


def test_random_params_respect_constraints():
    import random
    rng = random.Random(0)
    for n in (0, 1, 5, 12):
        validate_params(random_params(n, rng))
