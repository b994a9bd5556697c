"""Named identity sweeps backing the ``verify`` CLI verb.

Each check exercises one of the library's standing invariants over an
exhaustive or seeded-random range.  A check is one or more streams of
``(case, holds)`` outcomes, drained by ``_sweep``: it passes only when
every stream covers at least one case and every case holds, and its
detail reads ``"<scope>; <cases> cases, <failures> failures"``, naming
the first failing case.  All randomness is driven by the caller's seed,
so runs are reproducible.

The checks fall into two groups, each with the tables it reads.
``run_all`` runs both in one process; ``run_forked``, which the CLI
calls, runs the c group in a forked child beside the volume group and
returns the same results in the same order.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import exactnum, exactvalue, grassvol, qlocal, rootsys, splitting, sympair
from .grassvol import GrassSpec, VolumeExpr

# Every scope that run_all's bounds do not set, and the caps of the two
# sweeps that follow max_n_c and max_n_grass.
PFAFFIAN_SQUARE_SAMPLES = 100
PFAFFIAN_CONGRUENCE_SAMPLES = 40
ALPHA_SAMPLES = 50
FLAG_MAX_C = 8
CLOSED_FORM_MAX_N = 20  # C(r, n) closed form and the Q(n) predicates
C_TABLE_SAMPLES = 3  # parameter vectors per n: the c table and the localization sweep
LOCALIZATION_MAX_N = 10  # cap on max_n_c
CASIMIR_POINTS = 100
RHO_MAX_N = 6
D21A_MAX_L = 100
CHAIN_MAX_GL = 5  # cap on max_n_grass
CHAIN_MAX_Q = 10
GL_MAX_RANK = 4  # the gl(m|n) root systems have m, n <= GL_MAX_RANK

# Tables that run_all builds once; each sweep reads its bound from the keys.
Volumes = dict[GrassSpec, VolumeExpr]
GlSystems = dict[tuple[int, int], rootsys.RootSystem]

# The two groups of checks that run_forked runs in two processes, of about
# equal cost: the c table's group, with the other subset-sum sweeps, the
# Pfaffian squares and the sympair sweeps; and the group of the volume
# table and the gl systems, with every other sweep.  Each table is read
# by the checks of one group only.
C_GROUP, VOLUME_GROUP = "c", "volume"


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str

    def to_payload(self) -> dict:
        return {"check": self.name, "passed": self.passed, "detail": self.detail}


def _sweep(name: str, scope: str, *parts) -> CheckResult:
    """Drain each part, an iterable of ``(case, holds)`` pairs, into one
    result that passes only when every part covers a case and every case
    holds."""
    cases = failures = 0
    first = None
    empty = []
    for index, part in enumerate(parts, 1):
        covered = cases
        for case, holds in part:
            cases += 1
            if not holds:
                failures += 1
                if failures == 1:
                    first = case
        if cases == covered:
            empty.append(index)
    detail = f"{scope}; {cases} cases, {failures} failures"
    if failures:
        detail += f", first {first}"
    if empty:
        detail += f"; part {' and '.join(map(str, empty))} of {len(parts)} covered no case"
    return CheckResult(name, not failures and not empty, detail)


def _specs(max_mn: int):
    """Every ``GrassSpec(r, s, m, n)`` with m, n <= max_mn."""
    for m, n in itertools.product(range(max_mn + 1), repeat=2):
        for r, s in itertools.product(range(m + 1), range(n + 1)):
            yield GrassSpec(r, s, m, n)


def _bound(table: dict, index: int) -> int:
    """The bound of a table that run_all builds, the largest ``key[index]``:
    n of the c table's (r, n), m of a spec's (r, s, m, n) or a gl system's (m, n)."""
    return max((key[index] for key in table), default=-1)


def _triangle(max_n: int, low: int = 0):
    """Every ``(r, n)`` with low <= r <= n <= max_n."""
    for n in range(low, max_n + 1):
        for r in range(low, n + 1):
            yield r, n


def _random_skew(n: int, rng: random.Random):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            entries[i][j] = x
            entries[j][i] = -x
    return entries


def check_pfaffian_square(seed: int) -> CheckResult:
    rng = random.Random(seed)
    matrices = (_random_skew(2 * rng.randint(1, 5), rng) for _ in range(PFAFFIAN_SQUARE_SAMPLES))
    return _sweep("pfaffian-square-equals-determinant",
                  "random skew matrices up to 10x10",
                  ((f"sample {k}", exactnum.pfaffian(m) ** 2 == exactnum.det(m))
                   for k, m in enumerate(matrices)))


def _congruences(seed: int):
    rng = random.Random(seed)
    for k in range(PFAFFIAN_CONGRUENCE_SAMPLES):
        n = 2 * rng.randint(1, 3)
        m = _random_skew(n, rng)
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        lhs = exactnum.pfaffian(
            exactnum.mat_mul(exactnum.mat_mul(list(zip(*p)), m), p))
        yield f"sample {k}", lhs == exactnum.det(p) * exactnum.pfaffian(m)


def check_pfaffian_congruence(seed: int) -> CheckResult:
    return _sweep("pfaffian-congruence-scaling", "random congruences up to 6x6",
                  _congruences(seed))


def _alpha_models(seed: int):
    rng = random.Random(seed)
    for k in range(ALPHA_SAMPLES):
        n = rng.randint(1, 4)
        c = [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
        d = [Fraction(rng.choice([x for x in range(-8, 9) if x]), rng.randint(1, 3))
             for _ in range(n)]
        q01, q10 = exactnum.realified_diagonal_action(c, d)
        yield f"sample {k}", exactnum.alpha_pfaffian(q01, q10) == exactnum.alpha_diagonal(c, d)


def check_alpha_agreement(seed: int) -> CheckResult:
    return _sweep("alpha-pfaffian-matches-diagonal-product",
                  "realified diagonal models", _alpha_models(seed))


def check_defect_table(systems: GlSystems) -> CheckResult:
    families = (
        ("osp", (3, 2), 1), ("osp", (2, 2), 1),
        ("d21a", (Fraction(1),), 1), ("d21a", (Fraction(1, 2),), 1),
        ("d21a", (Fraction(-3),), 1), ("g3", (), 1), ("f4", (), 1),
    )
    return _sweep(
        "defect-table", f"gl up to rank {_bound(systems, -2)} plus defect-one families",
        ((("gl", m, n), rootsys.defect(system) == min(m, n))
         for (m, n), system in systems.items()),
        (((family, *params), rootsys.defect(rootsys.build_root_system(family, *params))
          == expected) for family, params, expected in families))


def _gl_root_outcomes(systems: GlSystems):
    for (m, n), system in systems.items():
        # the Gram scale and each root's denominator are positive: isotropy
        # on the integer supports is that of the exact values
        gram, _ = exactvalue.integer_scaled(system.gram)
        for r in system.roots:
            isotropic = exactnum.sparse_form(gram, r.support, r.support) == 0
            yield ("isotropic-iff-odd", m, n, r.support), isotropic == (r.parity == rootsys.ODD)


def check_root_system_invariants(systems: GlSystems) -> CheckResult:
    return _sweep("gl-root-system-invariants", f"gl up to rank {_bound(systems, -2)}",
                  _gl_root_outcomes(systems))


def check_nonvanishing(volumes: Volumes) -> CheckResult:
    return _sweep("volume-nonvanishing-iff-sdim-nonnegative",
                  f"exhaustive m,n <= {_bound(volumes, -2)}",
                  ((spec, (not vol.is_zero()) == (grassvol.sdim(spec) >= 0))
                   for spec, vol in volumes.items()))


def check_volume_symmetry(volumes: Volumes) -> CheckResult:
    return _sweep("volume-swap-symmetry", f"exhaustive m,n <= {_bound(volumes, -2)}",
                  ((spec, vol == volumes[spec.swapped()]) for spec, vol in volumes.items()))


def _cross_outcomes(volumes: Volumes):
    for spec, vol in volumes.items():
        if spec.r >= spec.s and grassvol.sdim(spec) >= 0:
            yield ("fibration", spec), grassvol.volume_via_fibration(spec) == vol
        sign = VolumeExpr.make(grassvol.duality_sign(spec))
        yield ("duality", spec), vol == sign * volumes[spec.complement()]


def check_cross_formula(volumes: Volumes) -> CheckResult:
    return _sweep("volume-cross-formula-and-duality", f"exhaustive m,n <= {_bound(volumes, -2)}",
                  _cross_outcomes(volumes))


def check_flag_identity() -> CheckResult:
    triples = itertools.combinations_with_replacement(range(FLAG_MAX_C + 1), 3)
    return _sweep("flag-fibration-volume-identity", f"exhaustive a <= b <= c <= {FLAG_MAX_C}",
                  ((t, grassvol.check_flag_identity(*t)) for t in triples))


def check_two_pi_power(volumes: Volumes) -> CheckResult:
    return _sweep("two-pi-power-equals-odd-dimension", f"exhaustive m,n <= {_bound(volumes, -2)}",
                  ((spec, vol.is_zero() or vol.two_pi_power == grassvol.dims(spec).odd)
                   for spec, vol in volumes.items()))


def check_c_table(table: dict[tuple[int, int], Fraction]) -> CheckResult:
    """``table`` is ``qlocal.brute_c_table(max_n, seed, C_TABLE_SAMPLES)``."""
    max_n = _bound(table, -1)
    return _sweep("c-table-bruteforce-matches-closed-form",
                  f"all 0 <= r <= n <= {max_n}, {C_TABLE_SAMPLES} samples each",
                  ((case, table[case] == qlocal.c_closed(*case)) for case in _triangle(max_n)))


def check_c_recursions(table: dict[tuple[int, int], Fraction]) -> CheckResult:
    """Closed form to ``CLOSED_FORM_MAX_N`` and the brute table against
    [n choose r]_(-1), which obeys both recursions; each row is built once."""
    brute_max_n = _bound(table, -1)
    rows = [qlocal.gaussian_binomials(n, -1)
            for n in range(max(CLOSED_FORM_MAX_N, brute_max_n) + 1)]
    return _sweep("c-recursions-and-symmetry",
                  f"closed form to n = {CLOSED_FORM_MAX_N}, brute force to n = {brute_max_n}",
                  (((r, n), qlocal.c_closed(r, n) == rows[n][r])
                   for r, n in _triangle(CLOSED_FORM_MAX_N, low=1)),
                  (((r, n), table[(r, n)] == rows[n][r])
                   for r, n in _triangle(brute_max_n, low=1)))


def check_c_vanishing() -> CheckResult:
    return _sweep("c-nonzero-iff-even-parity-product", f"n <= {CLOSED_FORM_MAX_N}",
                  (((r, n), (qlocal.c_closed(r, n) != 0) == (r * (n - r) % 2 == 0))
                   for r, n in _triangle(CLOSED_FORM_MAX_N)))


def _gl_localization_outcomes(max_n: int, seed: int):
    # one seeded t per (n, vector), and one pass of the kernel for every r
    rng = random.Random(seed)
    for n in range(max_n + 1):
        for a in qlocal.seeded_param_vectors(n, C_TABLE_SAMPLES, seed + 1000 + n):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            row = qlocal.gaussian_binomials(n, t)
            for r, total in enumerate(qlocal.localization_sums(n, a, t)):
                yield (r, n, str(t)), total == row[r]


def check_gl_localization(max_n: int, seed: int) -> CheckResult:
    return _sweep("localization-sum-is-gaussian-binomial",
                  f"n <= {max_n}, {C_TABLE_SAMPLES} samples, seeded t = p/q",
                  _gl_localization_outcomes(max_n, seed))


def _casimir_outcomes():
    pairs = sympair.builtin_pairs(1, 3) + [sympair.osp_pair(2, 3), sympair.osp_pair(2, 5)]
    for pair in pairs:
        positive = sympair.gram_positive_definite(pair)
        yield (pair.name, "gram"), positive
        if not positive:
            continue
        grid = _dominant_grid(pair.rank)
        # the fundamental weights W_j over one lcm d and the grid points c
        # over one lcm g, as integers: the weight sum_j c_j W_j is an integer
        # combination over g d
        fund, d = exactvalue.integer_scaled(sympair.fundamental_weights(pair))
        numerators, g = exactvalue.integer_scaled(grid)
        # nonnegative combinations of fundamental weights: dominant
        weights = exactnum.integer_mat_mul(numerators, fund)
        yield from zip(((pair.name, coeffs) for coeffs in grid),
                       sympair.positivity_checks(pair, weights, g * d))


def check_casimir_positivity() -> CheckResult:
    return _sweep("casimir-positive-on-dominant-weights",
                  f">= {CASIMIR_POINTS} dominant points per pair", _casimir_outcomes())


def _dominant_grid(rank: int):
    """Nonzero nonnegative coefficient tuples in fundamental-weight coords."""
    if rank == 1:
        return [(Fraction(k, 20),) for k in range(1, CASIMIR_POINTS + 1)]
    steps = [Fraction(k, 2) for k in range(11)]  # 0, 1/2, ..., 5
    return [t for t in itertools.product(steps, repeat=rank) if any(t)]


def _rho_outcomes():
    for m in range(RHO_MAX_N):
        for n in range(m + 1, RHO_MAX_N + 1):
            yield ("osp", m, n), sympair.osp_pair(m, n).rho == (Fraction(n - m - 1),)
    for pair, expected in ((sympair.g12_pair(), (1, 1)),
                           (sympair.f31_pair(), (1, 2, 3))):
        yield pair.name, pair.rho == tuple(Fraction(c) for c in expected)


def check_rho_coefficients() -> CheckResult:
    return _sweep("rho-coefficients-match-declared-values",
                  f"osp grid 0 <= m < n <= {RHO_MAX_N} plus fixed pairs", _rho_outcomes())


def check_d21a_weights() -> CheckResult:
    return _sweep("principal-block-weights-in-rank-two-subspace", f"l <= {D21A_MAX_L}",
                  ((l, sympair.d21a_in_a_star(l) == (l <= 1)) for l in range(D21A_MAX_L + 1)))


def check_chains(max_gl: int) -> CheckResult:
    # No Levi step needs an evidence case of its own: validation recomputes
    # its criterion, and a GL step's sdim (1-1)(...) is 0 by construction.
    return _sweep("minimal-chains-validate", f"GL m,n <= {max_gl}, Q n <= {CHAIN_MAX_Q}",
                  ((("GL", m, n), splitting.minimal_chain(splitting.GL(m, n)).validate())
                   for m, n in itertools.product(range(max_gl + 1), repeat=2)),
                  ((("Q", n), splitting.minimal_chain(splitting.Q(n)).validate())
                   for n in range(CHAIN_MAX_Q + 1)))


def check_predicate_agreement(volumes: Volumes) -> CheckResult:
    return _sweep(
        "splitting-predicates-agree-with-volumes",
        f"GL m,n <= {_bound(volumes, -2)}, Q n <= {CLOSED_FORM_MAX_N}",
        ((spec, splitting.is_splitting_levi_gl(*spec).ok == (not vol.is_zero()))
         for spec, vol in volumes.items()),
        ((("Q", r, n), splitting.is_splitting_levi_q(r, n).ok == (qlocal.c_closed(r, n) != 0))
         for r, n in _triangle(CLOSED_FORM_MAX_N)))


def _sdim_necessity_holds(spec: GrassSpec) -> bool:
    r, s, m, n = spec
    g = splitting.GL(m, n)
    k = splitting.GL(r, s) * splitting.GL(m - r, n - s)
    necessity = splitting.sdim_necessity((g.even_dim, g.odd_dim), (k.even_dim, k.odd_dim))
    return necessity == (grassvol.sdim(spec) >= 0)


def check_sdim_necessity(volumes: Volumes) -> CheckResult:
    """Reads only the specs of ``volumes``, not their volumes."""
    return _sweep("sdim-necessity-reproduces-grassmannian-sdim",
                  f"exhaustive m,n <= {_bound(volumes, -2)}",
                  ((spec, _sdim_necessity_holds(spec)) for spec in volumes))


def _plan(seed: int, max_n_grass: int,
          max_n_c: int) -> list[tuple[str, Callable[[], CheckResult]]]:
    """Every check of ``run_all`` in its order, as ``(group, run)``.  The
    tables follow ``max_n_grass`` and ``max_n_c``, and two sweeps follow
    them up to a cap; every other scope is a constant.  A table is built
    when a check first reads it, and only the checks of one group read it,
    so a run of both groups in two processes builds each table once."""
    c_table = functools.cache(lambda: qlocal.brute_c_table(max_n_c, seed, C_TABLE_SAMPLES))
    volumes = functools.cache(
        lambda: {spec: grassvol.volume(spec) for spec in _specs(max_n_grass)})
    systems = functools.cache(
        lambda: {(m, n): rootsys.build_root_system("gl", m, n)
                 for m, n in itertools.product(range(GL_MAX_RANK + 1), repeat=2)})
    c, vol = C_GROUP, VOLUME_GROUP
    return [
        (c, lambda: check_pfaffian_square(seed)),
        (vol, lambda: check_pfaffian_congruence(seed + 1)),
        (vol, lambda: check_alpha_agreement(seed + 2)),
        (vol, lambda: check_defect_table(systems())),
        (vol, lambda: check_root_system_invariants(systems())),
        (vol, lambda: check_nonvanishing(volumes())),
        (vol, lambda: check_volume_symmetry(volumes())),
        (vol, lambda: check_cross_formula(volumes())),
        (vol, check_flag_identity),
        (vol, lambda: check_two_pi_power(volumes())),
        (c, lambda: check_c_table(c_table())),
        (c, lambda: check_c_recursions(c_table())),
        (c, check_c_vanishing),
        (c, lambda: check_gl_localization(min(LOCALIZATION_MAX_N, max_n_c), seed)),
        (c, check_casimir_positivity),
        (c, check_rho_coefficients),
        (c, check_d21a_weights),
        (vol, lambda: check_chains(min(CHAIN_MAX_GL, max_n_grass))),
        (vol, lambda: check_predicate_agreement(volumes())),
        (vol, lambda: check_sdim_necessity(volumes())),
    ]


def _run_group(plan, group: str) -> list[CheckResult]:
    return [run() for g, run in plan if g == group]


def run_all(seed: int = 0, max_n_grass: int = 6, max_n_c: int = 12) -> list[CheckResult]:
    """Every named sweep, in this process."""
    return [run() for _, run in _plan(seed, max_n_grass, max_n_c)]


def run_forked(seed: int, max_n_grass: int, max_n_c: int) -> list[CheckResult]:
    """``run_all``'s results, with the c group run in a forked child while
    this process runs the volume group.

    The child writes its results as JSON and exits 0, or exits with
    another status.  When no child starts (no ``os.fork``, one usable
    CPU, a failed fork) or the child does not exit 0, this process runs
    the c group itself.  Its checks are seeded, so an exception the child
    raised is raised here again with its type and args, at the cost of a
    second run of the group.  The child has been waited for whatever
    either group raised.  Forking assumes that this process runs no other
    thread, as the CLI does not."""
    plan = _plan(seed, max_n_grass, max_n_c)
    pid = None
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_end)
        if pid == 0:  # the child never returns into the caller's code
            status = 1
            try:
                os.close(read_end)
                with open(write_end, "w") as pipe:
                    json.dump(_run_group(plan, C_GROUP), pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
    forked = None
    try:
        own = iter(_run_group(plan, VOLUME_GROUP))
    finally:
        if pid:
            with open(read_end) as pipe:
                data = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:
                forked = (CheckResult(*fields) for fields in json.loads(data))
    if forked is None:  # no child, or one that did not report
        forked = iter(_run_group(plan, C_GROUP))
    return [next(forked if group == C_GROUP else own) for group, _ in plan]
