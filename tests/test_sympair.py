from fractions import Fraction

import pytest

from supervol import sympair
from supervol.exactnum import form
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
    RestrictedPair,
)


def test_builtin_pairs_rho_values():
    pairs = builtin_pairs(1, 3)
    assert pairs[0].rho == (Fraction(1),)
    assert pairs[1].rho == (Fraction(1), Fraction(1))
    assert pairs[2].rho == (Fraction(1), Fraction(2), Fraction(3))


def test_osp_pair_requires_n_greater_than_m():
    with pytest.raises(ValueError, match="n > m"):
        osp_pair(2, 2)
    with pytest.raises(ValueError, match="n > m"):
        osp_pair(3, 1)
    with pytest.raises(ValueError, match="n > m >= 0"):
        osp_pair(-1, 3)


def test_rho_coefficients_osp_grid():
    assert osp_pair(2, 5).rho == (Fraction(2),)
    assert osp_pair(2, 3).rho == (Fraction(0),)
    for m in range(6):
        for n in range(m + 1, 7):
            assert osp_pair(m, n).rho == (Fraction(n - m - 1),)


def test_pair_rejects_negative_rho():
    with pytest.raises(ValueError, match="negative rho coefficient"):
        sympair._pair("bad", [[2]], [-1], [])
    with pytest.raises(ValueError, match="negative rho coefficient"):
        sympair._pair("bad", [[6, -3], [-3, 2]], [1, Fraction(-1, 2)], [3])
    assert sympair._pair("zero", [[2]], [0], []).rho == (Fraction(0),)


def test_length_ratios_match_gram():
    g12 = g12_pair()
    a1, a2 = (1, 0), (0, 1)
    assert form(g12.gram, a1, a1) == 3 * form(g12.gram, a2, a2)
    f31 = f31_pair()
    a1, a2, a3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert form(f31.gram, a1, a1) / form(f31.gram, a2, a2) == Fraction(3, 8)
    assert form(f31.gram, a2, a2) / form(f31.gram, a3, a3) == 2


def test_gram_matrices_positive_definite():
    for pair in builtin_pairs(1, 3) + [osp_pair(2, 3), osp_pair(0, 6)]:
        assert gram_positive_definite(pair)


def test_inner_examples():
    f31 = f31_pair()
    with pytest.raises(ValueError, match="dimension"):
        form(f31.gram, (1, 0), (1, 0, 0))
    with pytest.raises(ValueError, match="dimension"):
        form(f31.gram, (1, 0, 0), (1, 0, 0, 0))
    with pytest.raises(TypeError, match="exact"):
        form(f31.gram, (1, 0, 0.5), (1, 0, 0))
    with pytest.raises(TypeError, match="exact"):
        form(f31.gram, (1, 0, 0), (0, 1.0, 0))
    # zero coordinates are skipped; the value is the dense sum
    for v, w in (((1, 0, 0), (0, 1, 0)), ((0, 2, 0), (1, 0, 3)),
                 ((Fraction(1, 2), 0, -1), (0, 0, 0)), ((3, -1, 2), (1, 1, Fraction(-1, 3)))):
        dense = sum(Fraction(v[i]) * f31.gram[i][j] * w[j]
                    for i in range(3) for j in range(3))
        assert form(f31.gram, v, w) == dense


def test_casimir_eigenvalue_examples():
    g12 = g12_pair()
    zero = (0, 0)
    assert casimir_eigenvalue(g12, zero) == 0
    # (a1 + 2 rho, a1) computed by hand from the Gram matrix
    a1 = (1, 0)
    expected = form(g12.gram, a1, a1) + 2 * form(g12.gram, g12.rho, a1)
    assert casimir_eigenvalue(g12, a1) == expected == 12

    pair = osp_pair(1, 3)
    alpha = (1,)
    assert casimir_eigenvalue(pair, alpha) == 3 * form(pair.gram, alpha, alpha)


def test_casimir_eigenvalue_literal_values():
    # Fraction and negative weights, with values as computed by the Fraction
    # evaluation of (weight + 2 rho, weight) that the integer form replaced
    cases = (
        (g12_pair(), (Fraction(1, 2), Fraction(-3, 4)), Fraction(75, 8)),
        (g12_pair(), (-2, Fraction(1, 3)), Fraction(140, 9)),
        (g12_pair(), (Fraction(-7, 5), Fraction(9, 2)), Fraction(3633, 50)),
        (f31_pair(), (Fraction(3, 2), 0, Fraction(-5, 6)), Fraction(-137, 18)),
        (f31_pair(), (-1, Fraction(1, 3), 0), Fraction(190, 9)),
        (f31_pair(), (Fraction(2, 7), Fraction(-1, 4), Fraction(5, 9)), Fraction(117295, 7938)),
        (osp_pair(1, 3), (Fraction(-5, 7),), Fraction(-90, 49)),
        (osp_pair(0, 4), (Fraction(3, 10),), Fraction(189, 50)),
        (osp_pair(2, 5), (-3,), Fraction(-6)),
        (osp_pair(2, 3), (Fraction(-1, 2),), Fraction(1, 2)),
    )
    for pair, weight, expected in cases:
        value = casimir_eigenvalue(pair, weight)
        assert type(value) is Fraction and value == expected, (pair.name, weight)
        assert positivity_check(pair, weight) == (expected > 0)


def test_casimir_eigenvalue_rejects_bad_weights():
    for pair in builtin_pairs(1, 3):
        for weight in ((1,) * (pair.rank + 1), (1,) * (pair.rank - 1)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                casimir_eigenvalue(pair, weight)
        with pytest.raises(TypeError, match="exact"):
            casimir_eigenvalue(pair, (0.5,) * pair.rank)
        with pytest.raises(TypeError, match="exact"):
            positivity_check(pair, (0.5,) * pair.rank)
    with pytest.raises(ValueError, match="dimension mismatch"):
        positivity_check(g12_pair(), (1, 0, 0))


def test_positivity_check_examples():
    for pair in builtin_pairs(1, 3):
        assert positivity_check(pair, (1,) + (0,) * (pair.rank - 1))
    assert positivity_check(f31_pair(), (1, 1, 1))
    # boundary: rho = 0 still gives a positive value through (a, a) > 0
    boundary = osp_pair(2, 3)
    assert boundary.rho == (Fraction(0),)
    assert positivity_check(boundary, (1,))
    with pytest.raises(ValueError, match="excluded by hypothesis"):
        positivity_check(boundary, (0,))


def test_positivity_checks_read_integer_weights_over_one_denominator():
    weights = [(3, -1, 2), (-5, 0, 1), (0, 0, 7), (1, 1, -9), (-2, -2, -2)]
    for pair in builtin_pairs(1, 3) + [osp_pair(2, 3), osp_pair(2, 5)]:
        for d in (1, 6, 35):
            ws = [w[:pair.rank] for w in weights if any(w[:pair.rank])]
            expected = [casimir_eigenvalue(pair, [Fraction(x, d) for x in w]) > 0 for w in ws]
            assert list(sympair.positivity_checks(pair, ws, d)) == expected
            assert expected == [positivity_check(pair, [Fraction(x, d) for x in w]) for w in ws]
        # the zero weight is excluded before its length is looked at
        checks = sympair.positivity_checks(pair, [(1,) * pair.rank, (0,) * (pair.rank + 1)], 4)
        assert next(checks)
        with pytest.raises(ValueError, match="excluded by hypothesis"):
            next(checks)


def _coordinate_vectors(k):
    return [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]


def test_fundamental_weights_are_dual_basis():
    for pair in builtin_pairs(1, 3) + [osp_pair(2, 3), osp_pair(2, 5)]:
        fund = fundamental_weights(pair)
        for i, w in enumerate(fund):
            for j, a in enumerate(_coordinate_vectors(pair.rank)):
                assert form(pair.gram, w, a) == (1 if i == j else 0)
            assert pair.is_dominant(w)
            assert not pair.is_dominant(tuple(-x for x in w))
    singular = sympair.RestrictedPair("singular", ((Fraction(1), Fraction(1)),
                                                   (Fraction(1), Fraction(1))),
                                      (Fraction(1), Fraction(1)))
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


def test_positivity_check_at_eigenvalue_one():
    # No built-in pair gives an integer numerator of 1, so only this pair
    # tells "> 0" from "> 1" in positivity_checks.
    unit = RestrictedPair("unit", ((Fraction(1),),), (Fraction(0),))
    assert casimir_eigenvalue(unit, (1,)) == 1
    assert positivity_check(unit, (1,)) is True
