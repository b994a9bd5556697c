import itertools
import math
from fractions import Fraction

import pytest

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


def test_json_round_trip():
    samples = [
        VolumeExpr.zero(),
        VolumeExpr.make(Fraction(-7, 3), 5, ((1, 3, 2), (2, 5, -1))),
        volume(GrassSpec(2, 1, 4, 2)),
        volume(GrassSpec(3, 3, 5, 5)),
    ]
    for expr in samples:
        assert VolumeExpr.from_payload(expr.to_payload()) == expr
        payload = expr.to_payload()
        assert isinstance(payload["coeff"], str)


def test_render_examples():
    assert volume(GrassSpec(1, 1, 2, 2)).render() == "2·(2π)^2"
    assert VolumeExpr.make(1, 1).render() == "1·(2π)"
