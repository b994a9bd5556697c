"""Acceptance criteria, one test per criterion, all exact (tolerance 0).

Most criteria run the ``verify`` check that sweeps the same identity on
the same inputs, at ``verify``'s constants, and assert the scope it
reports; criterion 3 keeps an independent sdim formula, criterion 7 one
shared random stream, and criterion 4 has no ``verify`` check.
Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them as they complete).
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from supervol import exactnum, grassvol, qlocal, rootsys, verify
from supervol.grassvol import GrassSpec


@contextmanager
def criterion(num, name):
    ok = False
    started = time.monotonic()
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - started
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {num:2d}] {status} ({elapsed:6.2f}s) {name}", flush=True)


def all_specs(max_mn):
    for m, n in itertools.product(range(max_mn + 1), repeat=2):
        for r, s in itertools.product(range(m + 1), range(n + 1)):
            yield GrassSpec(r, s, m, n)


def volume_table(max_mn):
    """The table of volumes that ``verify.run_all`` hands to its volume sweeps."""
    return {spec: grassvol.volume(spec) for spec in all_specs(max_mn)}


def gl_systems(max_rank):
    """The table of gl root systems that ``verify.run_all`` hands to its root sweeps."""
    return {(m, n): rootsys.build_root_system("gl", m, n)
            for m, n in itertools.product(range(max_rank + 1), repeat=2)}


def assert_passes(result, scope):
    """``result`` passed and covered ``scope``, the criterion's bounds."""
    assert result.passed, result.detail
    assert result.detail.startswith(f"{scope}; "), result.detail


def test_criterion_1_c_table():
    with criterion(1, "brute-force subset sums match the closed form, n <= 12"):
        started = time.monotonic()
        table = qlocal.brute_c_table(12, 1000, verify.C_TABLE_SAMPLES)
        assert_passes(verify.check_c_table(table), "all 0 <= r <= n <= 12, 3 samples each")
        assert_passes(verify.check_c_vanishing(), "n <= 20")
        assert time.monotonic() - started < 60


def test_criterion_2_recursions():
    with criterion(2, "subset-sum recursions and symmetry, closed n <= 20, brute n <= 12"):
        started = time.monotonic()
        table = qlocal.brute_c_table(12, 2000, verify.C_TABLE_SAMPLES)
        assert_passes(verify.check_c_recursions(table),
                      "closed form to n = 20, brute force to n = 12")
        assert time.monotonic() - started < 60


def test_criterion_3_nonvanishing():
    with criterion(3, "volume nonzero iff superdimension nonnegative, m,n <= 6"):
        started = time.monotonic()
        for spec in all_specs(6):
            nonzero = not grassvol.volume(spec).is_zero()
            assert nonzero == (
                (spec.r - spec.s) * ((spec.m - spec.r) - (spec.n - spec.s)) >= 0)
        assert time.monotonic() - started < 5


def test_criterion_4_equal_rank_volumes():
    with criterion(4, "equal-rank and one-even-block volumes, n <= 8"):
        for n in range(9):
            for r in range(n + 1):
                assert grassvol.volume(GrassSpec(r, r, n, n)) == \
                    grassvol.VolumeExpr.make(math.comb(n, r), 2 * r * (n - r))
        for m in range(1, 9):
            for n in range(m):
                assert grassvol.volume(GrassSpec(m - n, 0, m, n)) == \
                    grassvol.VolumeExpr.make(1, n * (m - n))


def test_criterion_5_cross_formula_consistency():
    with criterion(5, "five-factor route, duality sign, and flag identity"):
        assert_passes(verify.check_cross_formula(volume_table(6)), "exhaustive m,n <= 6")
        assert_passes(verify.check_flag_identity(), "exhaustive a <= b <= c <= 8")


def test_criterion_6_gl_localization():
    with criterion(6, "localization sum is the Gaussian binomial at seeded t, n <= 10"):
        # the parameter vectors of size n come from seed 3000 + n
        assert_passes(verify.check_gl_localization(10, seed=2000),
                      "n <= 10, 3 samples, seeded t = p/q")


def test_criterion_7_pfaffian_suite():
    with criterion(7, "Pf^2 = det (100 samples) and alpha agreement (50 samples)"):
        rng = random.Random(4000)
        for _ in range(100):
            size = 2 * rng.randint(1, 5)
            m = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    m[i][j], m[j][i] = x, -x
            assert exactnum.pfaffian(m) ** 2 == exactnum.det(m)
        for _ in range(50):
            n = rng.randint(1, 4)
            c = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
            d = [Fraction(rng.choice([x for x in range(-8, 9) if x]),
                          rng.randint(1, 3)) for _ in range(n)]
            q01, q10 = exactnum.realified_diagonal_action(c, d)
            assert (exactnum.alpha_pfaffian(q01, q10)
                    == exactnum.alpha_diagonal(c, d))


def test_criterion_8_defect_table():
    with criterion(8, "defects: gl table m,n <= 4 and the defect-one families"):
        assert_passes(verify.check_defect_table(gl_systems(4)),
                      "gl up to rank 4 plus defect-one families")


def test_criterion_9_casimir_positivity():
    with criterion(9, "rho coefficients and Casimir positivity on >= 100 points"):
        assert_passes(verify.check_rho_coefficients(),
                      "osp grid 0 <= m < n <= 6 plus fixed pairs")
        assert_passes(verify.check_casimir_positivity(), ">= 100 dominant points per pair")


def test_criterion_10_d21a_weights():
    with criterion(10, "principal-block weight restriction test, l <= 100"):
        assert_passes(verify.check_d21a_weights(), "l <= 100")


def test_criterion_11_splitting_chains():
    with criterion(11, "chains validate and predicates agree with volumes"):
        assert_passes(verify.check_chains(5), "GL m,n <= 5, Q n <= 10")
        assert_passes(verify.check_predicate_agreement(volume_table(6)),
                      "GL m,n <= 6, Q n <= 20")
