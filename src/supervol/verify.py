"""Named identity sweeps backing the ``verify`` CLI verb.

Each check exercises one of the library's standing invariants over an
exhaustive or seeded-random range and reports pass/fail with a short
detail string.  All randomness is driven by the caller's seed, so runs
are reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import exactnum, grassvol, qlocal, rootsys, splitting, sympair
from .grassvol import GrassSpec


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_payload(self) -> dict:
        return {"check": self.name, "passed": self.passed, "detail": self.detail}


def _specs(max_mn: int):
    """Every ``GrassSpec(r, s, m, n)`` with m, n <= max_mn."""
    for m, n in itertools.product(range(max_mn + 1), repeat=2):
        for r, s in itertools.product(range(m + 1), range(n + 1)):
            yield GrassSpec(r, s, m, n)


def _random_skew(n: int, rng: random.Random):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            entries[i][j] = x
            entries[j][i] = -x
    return entries


def check_pfaffian_square(seed: int, samples: int = 100) -> CheckResult:
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        n = 2 * rng.randint(1, 5)
        m = _random_skew(n, rng)
        if exactnum.pfaffian(m) ** 2 != exactnum.det(m):
            bad += 1
    return CheckResult("pfaffian-square-equals-determinant", bad == 0,
                       f"{samples} random skew matrices up to 10x10, {bad} failures")


def check_pfaffian_congruence(seed: int, samples: int = 40) -> CheckResult:
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        n = 2 * rng.randint(1, 3)
        m = _random_skew(n, rng)
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        lhs = exactnum.pfaffian(
            exactnum.mat_mul(exactnum.mat_mul(exactnum.transpose(p), m), p))
        if lhs != exactnum.det(p) * exactnum.pfaffian(m):
            bad += 1
    return CheckResult("pfaffian-congruence-scaling", bad == 0,
                       f"{samples} random congruences, {bad} failures")


def check_alpha_agreement(seed: int, samples: int = 50) -> CheckResult:
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        n = rng.randint(1, 4)
        c = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
        d = [Fraction(rng.choice([x for x in range(-8, 9) if x]), rng.randint(1, 3))
             for _ in range(n)]
        q01, q10 = exactnum.realified_diagonal_action(c, d)
        if exactnum.alpha_pfaffian(q01, q10) != exactnum.alpha_diagonal(c, d):
            bad += 1
    return CheckResult("alpha-pfaffian-matches-diagonal-product", bad == 0,
                       f"{samples} realified diagonal models, {bad} failures")


def check_defect_table(max_rank: int = 4) -> CheckResult:
    bad = []
    for m in range(max_rank + 1):
        for n in range(max_rank + 1):
            system = rootsys.build_root_system("gl", m, n)
            if rootsys.defect(system) != min(m, n):
                bad.append((m, n))
    for family, params, expected in (
        ("osp", (3, 2), 1), ("osp", (2, 2), 1),
        ("d21a", (Fraction(1),), 1), ("d21a", (Fraction(1, 2),), 1),
        ("d21a", (Fraction(-3),), 1), ("g3", (), 1), ("f4", (), 1),
    ):
        if rootsys.defect(rootsys.build_root_system(family, *params)) != expected:
            bad.append((family, params))
    return CheckResult("defect-table", not bad,
                       f"gl up to rank {max_rank} plus defect-one families; "
                       f"failures: {bad if bad else 'none'}")


def check_root_system_invariants(max_rank: int = 4) -> CheckResult:
    bad = []
    for m in range(max_rank + 1):
        for n in range(max_rank + 1):
            system = rootsys.build_root_system("gl", m, n)
            root_set = {r.coords for r in system.roots}
            if root_set != {tuple(-c for c in v) for v in root_set}:
                bad.append(("negation", m, n))
            for r in system.roots:
                norm = rootsys.inner(system, r.coords, r.coords)
                if r.parity == rootsys.ODD and norm != 0:
                    bad.append(("odd-not-isotropic", m, n))
                if r.parity == rootsys.EVEN and norm == 0:
                    bad.append(("even-isotropic", m, n))
    return CheckResult("gl-root-system-invariants", not bad,
                       f"failures: {bad if bad else 'none'}")


def check_nonvanishing(max_mn: int = 6) -> CheckResult:
    bad = [spec for spec in _specs(max_mn)
           if (not grassvol.volume(spec).is_zero()) != (grassvol.sdim(spec) >= 0)]
    return CheckResult("volume-nonvanishing-iff-sdim-nonnegative", not bad,
                       f"exhaustive m,n <= {max_mn}; failures: {len(bad)}")


def check_volume_symmetry(max_mn: int = 6) -> CheckResult:
    bad = sum(grassvol.volume(spec) != grassvol.volume(spec.swapped())
              for spec in _specs(max_mn))
    return CheckResult("volume-swap-symmetry", bad == 0,
                       f"exhaustive m,n <= {max_mn}; failures: {bad}")


def check_cross_formula(max_mn: int = 6) -> CheckResult:
    bad = 0
    for spec in _specs(max_mn):
        if spec.r >= spec.s and grassvol.sdim(spec) >= 0:
            bad += grassvol.volume_via_fibration(spec) != grassvol.volume(spec)
        bad += not grassvol.check_complement_duality(spec)
    return CheckResult("volume-cross-formula-and-duality", bad == 0,
                       f"exhaustive m,n <= {max_mn}; failures: {bad}")


def check_flag_identity(max_c: int = 8) -> CheckResult:
    bad = 0
    for a in range(max_c + 1):
        for b in range(a, max_c + 1):
            for c in range(b, max_c + 1):
                if not grassvol.check_flag_identity(a, b, c):
                    bad += 1
    return CheckResult("flag-fibration-volume-identity", bad == 0,
                       f"exhaustive a <= b <= c <= {max_c}; failures: {bad}")


def check_two_pi_power(max_mn: int = 6) -> CheckResult:
    bad = 0
    for spec in _specs(max_mn):
        vol = grassvol.volume(spec)
        bad += not vol.is_zero() and vol.two_pi_power != grassvol.dims(spec).odd
    return CheckResult("two-pi-power-equals-odd-dimension", bad == 0,
                       f"exhaustive m,n <= {max_mn}; failures: {bad}")


def check_c_table(table: dict[tuple[int, int], Fraction], max_n: int = 12,
                  samples: int = 3) -> CheckResult:
    """``table`` is ``qlocal.brute_c_table(max_n, seed, samples)``."""
    bad = [
        (r, n)
        for n in range(max_n + 1)
        for r in range(n + 1)
        if table[(r, n)] != qlocal.c_closed(r, n)
    ]
    return CheckResult("c-table-bruteforce-matches-closed-form", not bad,
                       f"all 0 <= r <= n <= {max_n}, {samples} samples each; "
                       f"failures: {bad if bad else 'none'}")


def check_c_recursions(table: dict[tuple[int, int], Fraction], max_n: int = 20,
                       brute_max_n: int = 12) -> CheckResult:
    detail = f"closed form to n = {max_n}, brute force to n = {brute_max_n}"
    if min(max_n, brute_max_n) < 1:
        return CheckResult("c-recursions-and-symmetry", False,
                           f"{detail}; no (r, n) case covered")
    ok = (qlocal.check_recursions(qlocal.c_closed, max_n)
          and qlocal.check_recursions(lambda r, n: table[(r, n)], brute_max_n))
    return CheckResult("c-recursions-and-symmetry", ok, detail)


def check_c_vanishing(max_n: int = 20) -> CheckResult:
    bad = [
        (r, n)
        for n in range(max_n + 1)
        for r in range(n + 1)
        if (qlocal.c_closed(r, n) != 0) != (r * (n - r) % 2 == 0)
    ]
    return CheckResult("c-nonzero-iff-even-parity-product", not bad,
                       f"n <= {max_n}; failures: {bad if bad else 'none'}")


def check_gl_localization(max_n: int = 10, seed: int = 0, samples: int = 3) -> CheckResult:
    import math
    bad = []
    for n in range(max_n + 1):
        vectors = qlocal.seeded_param_vectors(n, samples, seed + 1000 + n)
        for r in range(n + 1):
            for a in vectors:
                if qlocal.gl_localization(r, n, a) != math.comb(n, r):
                    bad.append((r, n))
    return CheckResult("gl-localization-counts-fixed-points", not bad,
                       f"n <= {max_n}, {samples} samples; failures: {bad if bad else 'none'}")


def check_casimir_positivity(points_per_pair: int = 100) -> CheckResult:
    bad = []
    pairs = sympair.builtin_pairs(1, 3) + [sympair.osp_pair(2, 3), sympair.osp_pair(2, 5)]
    for pair in pairs:
        if not sympair.gram_positive_definite(pair):
            bad.append((pair.name, "gram"))
            continue
        fund = sympair.fundamental_weights(pair)
        count = 0
        grid = _dominant_grid(pair.rank, points_per_pair)
        for coeffs in grid:
            weight = tuple(
                sum(t * w[i] for t, w in zip(coeffs, fund))
                for i in range(pair.rank)
            )
            if not pair.is_dominant(weight):
                bad.append((pair.name, "dominance", coeffs))
                continue
            if not sympair.positivity_check(pair, weight):
                bad.append((pair.name, coeffs))
            count += 1
        if count < points_per_pair:
            bad.append((pair.name, "grid-too-small", count))
    return CheckResult("casimir-positive-on-dominant-weights", not bad,
                       f">= {points_per_pair} dominant points per pair; "
                       f"failures: {bad if bad else 'none'}")


def _dominant_grid(rank: int, minimum: int):
    """Nonzero nonnegative coefficient tuples in fundamental-weight coords."""
    if rank == 1:
        return [(Fraction(k, 20),) for k in range(1, minimum + 1)]
    steps = [Fraction(k, 2) for k in range(11)]  # 0, 1/2, ..., 5
    return [t for t in itertools.product(steps, repeat=rank) if any(t)]


def check_rho_coefficients(max_n: int = 6) -> CheckResult:
    bad = []
    for m in range(max_n):
        for n in range(m + 1, max_n + 1):
            pair = sympair.osp_pair(m, n)
            coeffs, nonneg = sympair.rho_coefficients(pair)
            if coeffs != (Fraction(n - m - 1),) or not nonneg:
                bad.append((m, n))
    for pair, expected in ((sympair.g12_pair(), (1, 1)),
                           (sympair.f31_pair(), (1, 2, 3))):
        coeffs, nonneg = sympair.rho_coefficients(pair)
        if coeffs != tuple(Fraction(c) for c in expected) or not nonneg:
            bad.append(pair.name)
    return CheckResult("rho-coefficients-match-declared-values", not bad,
                       f"osp grid 0 <= m < n <= {max_n} plus fixed pairs; "
                       f"failures: {bad if bad else 'none'}")


def check_d21a_weights(max_l: int = 100) -> CheckResult:
    bad = [l for l in range(max_l + 1) if sympair.d21a_in_a_star(l) != (l <= 1)]
    return CheckResult("principal-block-weights-in-rank-two-subspace", not bad,
                       f"l <= {max_l}; failures: {bad if bad else 'none'}")


def check_chains(max_gl: int = 5, max_q: int = 10) -> CheckResult:
    bad = []
    for m, n in itertools.product(range(max_gl + 1), repeat=2):
        chain = splitting.minimal_chain(splitting.GL(m, n))
        if not chain.validate():
            bad.append(("GL", m, n))
        for step in chain.steps:
            if step.rule == splitting.RULE_LEVI_GL and step.evidence["sdim"] != 0:
                bad.append(("GL-sdim", m, n))
    for n in range(max_q + 1):
        chain = splitting.minimal_chain(splitting.Q(n))
        if not chain.validate():
            bad.append(("Q", n))
        for step in chain.steps:
            if step.rule == splitting.RULE_LEVI_Q and step.evidence["parity_product"] % 2:
                bad.append(("Q-parity", n))
    return CheckResult("minimal-chains-validate", not bad,
                       f"GL m,n <= {max_gl}; Q n <= {max_q}; "
                       f"failures: {bad if bad else 'none'}")


def check_predicate_agreement(max_gl: int = 6, max_q: int = 20) -> CheckResult:
    bad = sum(
        splitting.is_splitting_levi_gl(spec.r, spec.s, spec.m, spec.n).ok
        != (not grassvol.volume(spec).is_zero())
        for spec in _specs(max_gl))
    for n in range(max_q + 1):
        for r in range(n + 1):
            levi = splitting.is_splitting_levi_q(r, n).ok
            if levi != (qlocal.c_closed(r, n) != 0):
                bad += 1
    return CheckResult("splitting-predicates-agree-with-volumes", bad == 0,
                       f"GL m,n <= {max_gl}; Q n <= {max_q}; failures: {bad}")


def check_sdim_necessity(max_mn: int = 6) -> CheckResult:
    bad = 0
    for spec in _specs(max_mn):
        r, s, m, n = spec.r, spec.s, spec.m, spec.n
        g = splitting.GL(m, n)
        k = splitting.GL(r, s) * splitting.GL(m - r, n - s)
        necessity = splitting.sdim_necessity((g.even_dim, g.odd_dim),
                                             (k.even_dim, k.odd_dim))
        bad += necessity != (grassvol.sdim(spec) >= 0)
    return CheckResult("sdim-necessity-reproduces-grassmannian-sdim", bad == 0,
                       f"exhaustive m,n <= {max_mn}; failures: {bad}")


def run_all(seed: int = 0, max_n_grass: int = 6, max_n_c: int = 12) -> list[CheckResult]:
    """Every named sweep, with exhaustive bounds adjustable for runtime."""
    c_table = qlocal.brute_c_table(max_n_c, seed)
    return [
        check_pfaffian_square(seed),
        check_pfaffian_congruence(seed + 1),
        check_alpha_agreement(seed + 2),
        check_defect_table(),
        check_root_system_invariants(),
        check_nonvanishing(max_n_grass),
        check_volume_symmetry(max_n_grass),
        check_cross_formula(max_n_grass),
        check_flag_identity(8),
        check_two_pi_power(max_n_grass),
        check_c_table(c_table, max_n_c),
        check_c_recursions(c_table, 20, max_n_c),
        check_c_vanishing(20),
        check_gl_localization(10, seed),
        check_casimir_positivity(),
        check_rho_coefficients(),
        check_d21a_weights(),
        check_chains(),
        check_predicate_agreement(),
        check_sdim_necessity(),
    ]
