import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supervol.grassvol import (
    GrassSpec,
    SuperDim,
    VolumeExpr,
    check_flag_identity,
    dims,
    duality_sign,
    sdim,
    volume,
    volume_via_fibration,
)


def all_specs(max_mn):
    for m, n in itertools.product(range(max_mn + 1), repeat=2):
        for r, s in itertools.product(range(m + 1), range(n + 1)):
            yield GrassSpec(r, s, m, n)


def test_spec_validation():
    with pytest.raises(ValueError):
        GrassSpec(3, 0, 2, 2)
    with pytest.raises(ValueError):
        GrassSpec(0, 3, 2, 2)
    assert GrassSpec(1, 1, 2, 2)._replace(m=3) == GrassSpec(1, 1, 3, 2)
    with pytest.raises(ValueError):
        GrassSpec(1, 1, 2, 2)._replace(r=3)


def test_dims_examples():
    assert dims(GrassSpec(1, 1, 2, 2)) == SuperDim(2, 2)
    assert dims(GrassSpec(2, 0, 5, 0)) == SuperDim(6, 0)
    assert dims(GrassSpec(2, 0, 3, 1)) == SuperDim(2, 2)


def test_sdim_examples():
    assert sdim(GrassSpec(1, 1, 4, 7)) == 0
    assert sdim(GrassSpec(2, 0, 3, 4)) == -6
    assert sdim(GrassSpec(2, 1, 4, 2)) == 1


def test_volume_equal_rank():
    for n in range(9):
        for r in range(n + 1):
            assert volume(GrassSpec(r, r, n, n)) == VolumeExpr.make(
                math.comb(n, r), 2 * r * (n - r))


def test_volume_one_even_block():
    for m in range(1, 9):
        for n in range(m):
            assert volume(GrassSpec(m - n, 0, m, n)) == VolumeExpr.make(
                1, n * (m - n))


def test_volume_vanishes_on_negative_sdim():
    assert volume(GrassSpec(2, 0, 3, 4)) == VolumeExpr.zero()
    assert volume(GrassSpec(2, 0, 3, 4)).is_zero()


def test_volume_general_case_frozen():
    expected = VolumeExpr.make(-2, 4, ((1, 2, 1),))
    assert volume(GrassSpec(2, 1, 4, 2)) == expected
    assert volume(GrassSpec(2, 1, 4, 2)).render() == "-2·(2π)^4·V(1,2)"


def test_volume_swap_symmetry_exhaustive():
    for spec in all_specs(6):
        assert volume(spec) == volume(spec.swapped())


def test_nonvanishing_iff_sdim_nonnegative():
    for spec in all_specs(6):
        assert (not volume(spec).is_zero()) == (sdim(spec) >= 0)


def test_two_pi_power_is_odd_dimension():
    for spec in all_specs(6):
        vol = volume(spec)
        if not vol.is_zero():
            assert vol.two_pi_power == dims(spec).odd


def test_fibration_route_examples():
    assert (volume_via_fibration(GrassSpec(1, 1, 2, 2))
            == VolumeExpr.make(2, 2))
    assert (volume_via_fibration(GrassSpec(2, 1, 4, 2))
            == volume(GrassSpec(2, 1, 4, 2)))
    for n in range(4):
        for m in range(4):
            for r in range(min(m, n) + 1):
                spec = GrassSpec(r, r, m, n)
                assert volume_via_fibration(spec) == volume(spec)


def test_fibration_route_rejects_bad_input():
    with pytest.raises(ValueError):
        volume_via_fibration(GrassSpec(2, 0, 3, 4))
    with pytest.raises(ValueError):
        volume_via_fibration(GrassSpec(0, 1, 2, 2))


def test_duality_sign_examples():
    assert duality_sign(GrassSpec(1, 1, 2, 2)) == 1
    for m in range(1, 7):
        for n in range(m):
            sign = duality_sign(GrassSpec(m - n, 0, m, n))
            assert sign == (-1) ** (n * (m - n))


def test_flag_identity_examples_and_sweep():
    assert check_flag_identity(0, 1, 2)
    assert check_flag_identity(1, 2, 3)
    assert check_flag_identity(1, 1, 4)
    with pytest.raises(ValueError):
        check_flag_identity(2, 1, 3)


def test_atom_canonicalization():
    assert VolumeExpr.make(1, 0, ((0, 5, 1),)) == VolumeExpr.make(1)
    assert VolumeExpr.make(1, 0, ((4, 4, 2),)) == VolumeExpr.make(1)
    assert VolumeExpr.make(1, 0, ((3, 4, 1),)) == VolumeExpr.make(1, 0, ((1, 4, 1),))
    assert VolumeExpr.make(1, 0, ((1, 3, 1), (2, 3, 1))) == VolumeExpr.make(
        1, 0, ((1, 3, 2),))
    cancel = VolumeExpr.atom(1, 3) / VolumeExpr.atom(2, 3)
    assert cancel == VolumeExpr.make(1)


def test_zero_is_canonical():
    zero = VolumeExpr.make(0, 7, ((1, 3, 2),))
    assert zero == VolumeExpr.zero()
    assert zero.two_pi_power == 0 and zero.atoms == ()
    assert zero.render() == "0"


def test_expression_arithmetic():
    a = VolumeExpr.make(Fraction(3, 2), 2, ((1, 3, 1),))
    b = VolumeExpr.make(Fraction(-2), 1, ((1, 3, 1), (1, 4, 1)))
    assert a * b == VolumeExpr.make(-3, 3, ((1, 3, 2), (1, 4, 1)))
    assert (a * b) / b == a
    with pytest.raises(ZeroDivisionError):
        a / VolumeExpr.zero()
    # a NamedTuple must not fall back to tuple concatenation or repetition
    for bad in (lambda: a + b, lambda: (1,) + a, lambda: 3 * a, lambda: (1,) * a):
        with pytest.raises(TypeError):
            bad()


def test_make_rejects_an_invalid_atom_even_when_it_cancels():
    # every atom is validated, as given, before exponents can cancel
    with pytest.raises(ValueError, match=r"^invalid volume atom V\(5,3\)$"):
        VolumeExpr.make(1, 0, ((5, 3, 1), (5, 3, -1)))
    # valid atoms still cancel, and V(a, b) meets V(b-a, b)
    assert VolumeExpr.make(1, 0, ((1, 3, 1), (2, 3, -1))) == VolumeExpr.make(1)
    assert VolumeExpr.make(2, 1, ((3, 4, 1), (1, 4, 1), (0, 9, 5))).atoms == ((1, 4, 2),)


def test_render_examples():
    assert volume(GrassSpec(1, 1, 2, 2)).render() == "2·(2π)^2"
    assert VolumeExpr.make(1, 1).render() == "1·(2π)"


def test_two_step_flag_identities_hold_as_expressions():
    # Gr(r2|s2, m|n) Gr(r1|s1, r2|s2) = Gr(r1|s1, m|n) Gr(r2-r1|s2-s1, m-r1|n-s1):
    # both sides are the volume of one flag manifold, so they must compare equal
    count = 0
    for m, n in itertools.product(range(6), repeat=2):
        for r1, r2 in itertools.combinations_with_replacement(range(m + 1), 2):
            for s1, s2 in itertools.combinations_with_replacement(range(n + 1), 2):
                lhs = volume(GrassSpec(r2, s2, m, n)) * volume(GrassSpec(r1, s1, r2, s2))
                rhs = (volume(GrassSpec(r1, s1, m, n))
                       * volume(GrassSpec(r2 - r1, s2 - s1, m - r1, n - s1)))
                assert lhs == rhs, (r1, s1, r2, s2, m, n)
                count += 1
    assert count == 3136


def test_equal_u_monomials_are_equal_expressions():
    # V(1,2) V(2,4) and V(1,3) V(1,4) are both u(4) / (u(1)^2 u(2))
    lhs = VolumeExpr.atom(1, 2) * VolumeExpr.atom(2, 4)
    rhs = VolumeExpr.atom(1, 3) * VolumeExpr.atom(1, 4)
    assert lhs == rhs
    assert lhs.atoms == ((1, 3, 1), (1, 4, 1))
    assert lhs / rhs == VolumeExpr.make(1)


atom_lists = st.lists(
    st.integers(1, 9).flatmap(lambda b: st.tuples(st.integers(0, b), st.just(b),
                                                  st.integers(-3, 3))),
    max_size=6)


@given(atom_lists, st.randoms(use_true_random=False))
def test_normal_form_invariants(atoms, rng):
    expr = VolumeExpr.make(1, 0, atoms)
    assert VolumeExpr.make(1, 0, expr.atoms) == expr
    assert list(expr.atoms) == sorted(expr.atoms)
    assert all(1 <= a and 2 * a <= b and e != 0 for a, b, e in expr.atoms)
    assert len({b for _, b, _ in expr.atoms}) == len(expr.atoms)
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    assert VolumeExpr.make(1, 0, shuffled) == expr
    dual = [(b - a, b, e) if rng.random() < 0.5 else (a, b, e) for a, b, e in atoms]
    assert VolumeExpr.make(1, 0, dual) == expr
    product = VolumeExpr.make(1)
    for a, b, e in atoms:
        product = product * VolumeExpr.make(1, 0, ((a, b, e),))
    assert product == expr


@pytest.mark.parametrize("bad", [1.0, Fraction(1), True])
def test_fields_must_be_exact_ints(bad):
    for fields in ((bad, 0, 2, 0), (0, bad, 0, 2), (0, 0, bad, 0), (0, 0, 1, bad)):
        with pytest.raises(TypeError):
            GrassSpec(*fields)
    with pytest.raises(TypeError):
        GrassSpec(1, 0, 2, 0)._replace(r=bad)
    for coeff in (1, 0):
        with pytest.raises(TypeError):
            VolumeExpr.make(coeff, bad)
        for atom in ((bad, 2, 1), (1, bad, 1), (1, 2, bad)):
            with pytest.raises(TypeError):
                VolumeExpr.make(coeff, 0, (atom,))


def test_exactness_examples():
    # accepted before the int checks, and rendered with float or fractional exponents
    with pytest.raises(TypeError, match="^GrassSpec fields must be ints$"):
        GrassSpec(0.5, 0, 1, 0)
    with pytest.raises(TypeError, match="^power of 2pi must be an int, not 0.5$"):
        VolumeExpr.make(1, 0.5)
    with pytest.raises(TypeError, match=r"^volume atom \(1, 2, 0.5\) must hold ints$"):
        VolumeExpr.make(1, 0, ((1, 2, 0.5),))
    # a range error names the atom as given
    for a, b in ((-1, 2), (3, 2)):
        with pytest.raises(ValueError, match=rf"^invalid volume atom V\({a},{b}\)$"):
            VolumeExpr.atom(a, b)
    assert VolumeExpr.atom(0, 3) == VolumeExpr.atom(3, 3) == VolumeExpr.make(1)
