from fractions import Fraction

import pytest

from supervol import sympair
from supervol.sympair import (
    builtin_pairs,
    casimir_eigenvalue,
    d21a_in_a_star,
    d21a_weight,
    f31_pair,
    fundamental_weights,
    g12_pair,
    gram_positive_definite,
    osp_pair,
    positivity_check,
    rho_coefficients,
)


def test_builtin_pairs_rho_values():
    pairs = builtin_pairs(1, 3)
    assert rho_coefficients(pairs[0])[0] == (Fraction(1),)
    assert rho_coefficients(pairs[1])[0] == (Fraction(1), Fraction(1))
    assert rho_coefficients(pairs[2])[0] == (Fraction(1), Fraction(2), Fraction(3))
    assert all(rho_coefficients(p)[1] for p in pairs)


def test_osp_pair_requires_n_greater_than_m():
    with pytest.raises(ValueError, match="n > m"):
        osp_pair(2, 2)
    with pytest.raises(ValueError, match="n > m"):
        osp_pair(3, 1)
    with pytest.raises(ValueError, match="n > m >= 0"):
        osp_pair(-1, 3)


def test_rho_coefficients_osp_grid():
    assert rho_coefficients(osp_pair(2, 5))[0] == (Fraction(2),)
    boundary = rho_coefficients(osp_pair(2, 3))
    assert boundary[0] == (Fraction(0),) and boundary[1]
    for m in range(6):
        for n in range(m + 1, 7):
            coeffs, nonneg = rho_coefficients(osp_pair(m, n))
            assert coeffs == (Fraction(n - m - 1),) and nonneg


def test_length_ratios_match_gram():
    g12 = g12_pair()
    a1, a2 = (1, 0), (0, 1)
    assert g12.inner(a1, a1) == 3 * g12.inner(a2, a2)
    f31 = f31_pair()
    a1, a2, a3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert f31.inner(a1, a1) / f31.inner(a2, a2) == Fraction(3, 8)
    assert f31.inner(a2, a2) / f31.inner(a3, a3) == 2


def test_gram_matrices_positive_definite():
    for pair in builtin_pairs(1, 3) + [osp_pair(2, 3), osp_pair(0, 6)]:
        assert gram_positive_definite(pair)


def test_casimir_eigenvalue_examples():
    g12 = g12_pair()
    zero = (0, 0)
    assert casimir_eigenvalue(g12, zero) == 0
    # (a1 + 2 rho, a1) computed by hand from the Gram matrix
    a1 = (1, 0)
    expected = g12.inner(a1, a1) + 2 * g12.inner(g12.rho, a1)
    assert casimir_eigenvalue(g12, a1) == expected == 12

    pair = osp_pair(1, 3)
    alpha = (1,)
    assert casimir_eigenvalue(pair, alpha) == 3 * pair.inner(alpha, alpha)


def test_positivity_check_examples():
    for pair in builtin_pairs(1, 3):
        assert positivity_check(pair, (1,) + (0,) * (pair.rank - 1))
    assert positivity_check(f31_pair(), (1, 1, 1))
    # boundary: rho = 0 still gives a positive value through (a, a) > 0
    boundary = osp_pair(2, 3)
    assert rho_coefficients(boundary)[0] == (Fraction(0),)
    assert positivity_check(boundary, (1,))
    with pytest.raises(ValueError, match="excluded by hypothesis"):
        positivity_check(boundary, (0,))


def _coordinate_vectors(k):
    return [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]


def test_fundamental_weights_are_dual_basis():
    for pair in builtin_pairs(1, 3) + [osp_pair(2, 3), osp_pair(2, 5)]:
        fund = fundamental_weights(pair)
        for i, w in enumerate(fund):
            for j, a in enumerate(_coordinate_vectors(pair.rank)):
                assert pair.inner(w, a) == (1 if i == j else 0)
            assert pair.is_dominant(w)
            assert not pair.is_dominant(tuple(-x for x in w))
    singular = sympair.RestrictedPair("singular", ((Fraction(1), Fraction(1)),
                                                   (Fraction(1), Fraction(1))),
                                      (Fraction(1), Fraction(1)), ())
    with pytest.raises(ValueError):
        fundamental_weights(singular)


def test_d21a_weight_values():
    assert d21a_weight(0) == (0, 0, 0)
    assert d21a_weight(1) == (2, 0, 0)
    assert d21a_weight(2) == (3, 1, 1)
    assert d21a_in_a_star(0) and d21a_in_a_star(1) and not d21a_in_a_star(2)


def test_d21a_in_a_star_iff_l_at_most_one():
    for l in range(101):
        assert d21a_in_a_star(l) == (l <= 1)
