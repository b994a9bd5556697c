import itertools
import math
from fractions import Fraction

import pytest

from supervol import exactnum
from supervol.qlocal import (
    alpha_subset,
    brute_c_table,
    c_bruteforce,
    c_closed,
    check_recursions,
    check_recursions_on_table,
    gl_localization,
    random_params,
    seeded_param_vectors,
    validate_params,
)

# Distinct denominators, so the subset sums must scale by their lcm.
FRACTIONAL_PARAMS = tuple(Fraction(p, q) for p, q in (
    (1, 2), (-2, 3), (5, 4), (7, 6), (-3, 5), (11, 7), (-13, 9), (17, 10)))


def test_validate_params_rejects_degenerate():
    for bad in ([0, 1], [1, 1], [1, -1], [2, 3, -2]):
        with pytest.raises(ValueError, match="degenerate"):
            validate_params(bad)
    assert validate_params([1, 2, -4]) == (Fraction(1), Fraction(2), Fraction(-4))


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
    assert report.agrees and report.n == 4 and report.r == 2
    assert len(report.samples) == 3
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


def test_check_recursions():
    assert check_recursions(5)
    assert check_recursions(20)
    with pytest.raises(ValueError):
        check_recursions(1)
    # symmetry at (r,n) = (1,3): C(1,3) = (-1)^2 C(2,3)
    assert c_closed(1, 3) == c_closed(2, 3) == 1
    # base case consistent with both recursions
    assert c_closed(1, 2) == c_closed(1, 1) - c_closed(0, 1) == 0


def test_recursions_on_brute_table():
    table = brute_c_table(6, 7)
    assert check_recursions_on_table(table, 6)


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
