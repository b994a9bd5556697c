import inspect
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from supervol import cli, grassvol, qlocal, rootsys, sympair, verify
from supervol.grassvol import GrassSpec

DATA = Path(__file__).parent / "data"


def volume_table(max_mn):
    return {spec: grassvol.volume(spec) for spec in verify._specs(max_mn)}


def test_run_all_calls_every_check_once(monkeypatch):
    calls = {}

    def counting(name, check):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return check(*args, **kwargs)
        return wrapper

    names = [name for name in dir(verify) if name.startswith("check_")]
    for name in names:
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    results = verify.run_all(seed=1, max_n_grass=1, max_n_c=2)
    assert calls == {name: 1 for name in names}
    assert len({r.name for r in results}) == len(results) == 20
    assert all(r.passed for r in results)
    assert all(re.search(r"; \d+ cases, \d+ failures", r.detail) for r in results)


def test_run_all_bounds_reach_every_sweep():
    details = {r.name: r.detail for r in verify.run_all(seed=1, max_n_grass=2, max_n_c=3)}
    for name in ("volume-nonvanishing-iff-sdim-nonnegative", "volume-swap-symmetry",
                 "volume-cross-formula-and-duality", "two-pi-power-equals-odd-dimension",
                 "sdim-necessity-reproduces-grassmannian-sdim"):
        assert details[name].startswith("exhaustive m,n <= 2; "), name
    assert details["splitting-predicates-agree-with-volumes"].startswith(
        "GL m,n <= 2, Q n <= 20; ")
    assert details["minimal-chains-validate"].startswith("GL m,n <= 2, Q n <= 10; ")
    assert details["localization-sum-is-gaussian-binomial"].startswith(
        "n <= 3, 3 samples, seeded t = p/q; 30 cases, ")
    assert details["c-table-bruteforce-matches-closed-form"].startswith(
        "all 0 <= r <= n <= 3, ")


@pytest.mark.parametrize("max_n_grass, table_size", [(2, 36), (6, 784)])
def test_run_all_computes_each_volume_and_gl_system_once(monkeypatch, max_n_grass,
                                                         table_size):
    volumes, systems = [], []
    real_volume, real_build = grassvol.volume, rootsys.build_root_system

    def volume(spec):
        volumes.append(spec)
        return real_volume(spec)

    def build(family, *params):
        if family == "gl":
            systems.append(params)
        return real_build(family, *params)

    monkeypatch.setattr(grassvol, "volume", volume)
    monkeypatch.setattr(rootsys, "build_root_system", build)
    verify.run_all(max_n_grass=max_n_grass)
    # one volume per table spec, then the flag identity's own four per
    # triple a <= b <= c <= 8: 1,444 calls at the default bound
    assert volumes[:table_size] == list(verify._specs(max_n_grass))
    assert len(volumes) == table_size + 660
    assert all(spec.n == spec.s for spec in volumes[table_size:])
    assert systems == list(itertools.product(range(verify.GL_MAX_RANK + 1), repeat=2))
    assert len(systems) == 25


def test_a_wrong_table_volume_fails_every_sweep_that_reads_it():
    volumes = volume_table(2)
    # sdim < 0, so the true volume is zero; it precedes its swap and its
    # complement in the table, so no earlier case can look it up
    planted = GrassSpec(0, 2, 1, 2)
    assert volumes[planted].is_zero()
    volumes[planted] = grassvol.VolumeExpr.make(1, 99)
    duality = ("duality", planted)
    for check, first in ((verify.check_nonvanishing, planted),
                         (verify.check_volume_symmetry, planted),
                         (verify.check_cross_formula, duality),
                         (verify.check_two_pi_power, planted),
                         (verify.check_predicate_agreement, planted)):
        result = check(volumes)
        assert not result.passed, check.__name__
        assert result.detail.endswith(f", first {first}"), result.detail
    # the sdim sweep reads only the table's specs
    assert verify.check_sdim_necessity(volumes).passed


def test_sweeps_read_their_bounds_from_the_tables(monkeypatch):
    assert verify.check_nonvanishing(volume_table(3)).detail.startswith(
        "exhaustive m,n <= 3; ")
    monkeypatch.setattr(verify, "CLOSED_FORM_MAX_N", 2)
    assert verify.check_predicate_agreement(volume_table(1)).detail.startswith(
        "GL m,n <= 1, Q n <= 2; ")
    systems = {(m, n): rootsys.build_root_system("gl", m, n) for m, n in [(0, 1), (2, 1)]}
    assert verify.check_root_system_invariants(systems).detail.startswith("gl up to rank 2; ")
    empty = verify.check_sdim_necessity({})
    assert not empty.passed
    assert empty.detail == ("exhaustive m,n <= -1; 0 cases, 0 failures; "
                            "part 1 of 1 covered no case")


def test_check_with_an_empty_part_fails():
    result = verify.check_chains(-1)
    assert not result.passed
    assert result.detail.endswith("0 failures; part 1 of 2 covered no case")
    assert verify.check_chains(5).passed


def test_broken_case_fails_and_is_named_first(monkeypatch):
    real = qlocal.c_closed
    monkeypatch.setattr(qlocal, "c_closed",
                        lambda r, n: 0 if (r, n) == (2, 4) else real(r, n))
    result = verify.check_c_vanishing()
    assert not result.passed
    assert result.detail == "n <= 20; 231 cases, 1 failures, first (2, 4)"


def test_localization_sweep_fails_when_the_kernel_ignores_t(monkeypatch):
    monkeypatch.setattr(qlocal, "localization_sums",
                        lambda n, a, t: [math.comb(n, r) for r in range(n + 1)])
    result = verify.check_gl_localization(10, seed=0)
    assert not result.passed
    assert result.detail.startswith("n <= 10, 3 samples, seeded t = p/q; 198 cases, ")


def test_localization_sweep_names_a_kernel_off_at_one_r(monkeypatch):
    real = qlocal.localization_sums

    def off_at_two_of_six(n, a, t):
        sums = real(n, a, t)
        if n == 6:
            sums[2] += 1
        return sums

    monkeypatch.setattr(qlocal, "localization_sums", off_at_two_of_six)
    result = verify.check_gl_localization(10, seed=0)
    assert not result.passed
    assert re.fullmatch(r"n <= 10, 3 samples, seeded t = p/q; 198 cases, 3 failures, "
                        r"first \(2, 6, '-?\d+(/\d+)?'\)", result.detail), result.detail


def test_broken_brute_table_fails_the_recursion_check():
    table = qlocal.brute_c_table(12, 0, 3)
    table[(3, 9)] += 1
    result = verify.check_c_recursions(table)
    assert not result.passed
    assert result.detail.endswith("; 288 cases, 1 failures, first (3, 9)")


def test_c_checks_read_the_brute_bound_from_the_table(monkeypatch):
    # a table to n = 5 is checked to n = 5, not to a separately passed bound
    result = verify.check_c_recursions(qlocal.brute_c_table(5, 1, 3))
    assert result.passed
    assert result.detail.startswith("closed form to n = 20, brute force to n = 5; ")
    monkeypatch.setattr(verify, "C_TABLE_SAMPLES", 7)
    result = verify.check_c_table(qlocal.brute_c_table(4, 1, 7))
    assert result.passed
    assert result.detail == "all 0 <= r <= n <= 4, 7 samples each; 15 cases, 0 failures"


def test_run_all_gives_one_sample_count_to_table_and_check(monkeypatch):
    # the table is built with the constant that check_c_table reports
    counts = []
    real_table = qlocal.brute_c_table

    def table(nmax, seed, count):
        counts.append(count)
        return real_table(nmax, seed, count)

    monkeypatch.setattr(qlocal, "brute_c_table", table)
    verify.run_all(seed=1, max_n_grass=1, max_n_c=2)
    assert counts == [verify.C_TABLE_SAMPLES]


def test_checks_have_no_default_valued_parameter():
    # every scope is a module constant or follows a run_all bound
    names = [name for name in dir(verify) if name.startswith("check_")]
    assert len(names) == 20
    for name in names:
        parameters = inspect.signature(getattr(verify, name)).parameters.values()
        assert all(p.default is p.empty for p in parameters), name


def test_cli_verify_defaults_are_run_all_defaults():
    # the benchmark's probe calls run_all(seed=...) and the CLI passes its
    # option defaults, so both must sweep the same bounds
    args = cli.build_parser().parse_args(["verify"])
    defaults = inspect.signature(verify.run_all).parameters
    assert (args.max_n, args.max_n_c) == (6, 12)
    assert defaults["max_n_grass"].default == args.max_n
    assert defaults["max_n_c"].default == args.max_n_c


def test_dominant_grid_has_the_points_the_scope_names():
    # "casimir-positive-on-dominant-weights" claims >= CASIMIR_POINTS per pair
    for rank in (1, 2, 3):
        grid = verify._dominant_grid(rank)
        assert len(grid) >= verify.CASIMIR_POINTS, rank
        assert len(set(grid)) == len(grid)
        assert all(len(t) == rank and any(t) and min(t) >= 0 for t in grid)


def test_casimir_sweep_weights_are_the_fraction_combinations(monkeypatch):
    # positivity cannot see a positive rescaling of a dominant weight, so
    # the weights themselves, integers over one denominator, are compared
    # with sum_j c_j w_j in Fractions
    seen = []
    real = sympair.positivity_checks

    def record(pair, weights, d):
        def recorded():
            for w in weights:
                assert all(type(x) is int for x in w)
                seen.append((pair.name, tuple(Fraction(x, d) for x in w)))
                yield w
        return real(pair, recorded(), d)

    monkeypatch.setattr(sympair, "positivity_checks", record)
    result = verify.check_casimir_positivity()
    assert result.passed and "1755 cases, 0 failures" in result.detail
    pairs = sympair.builtin_pairs(1, 3) + [sympair.osp_pair(2, 3), sympair.osp_pair(2, 5)]
    expected = []
    for pair in pairs:
        fund = sympair.fundamental_weights(pair)
        for coeffs in verify._dominant_grid(pair.rank):
            expected.append((pair.name, tuple(
                sum((c * w[i] for c, w in zip(coeffs, fund)), Fraction(0))
                for i in range(pair.rank))))
    assert len(seen) == 1750
    assert seen == expected


def test_casimir_sweep_fails_on_a_gram_that_is_not_positive_definite(monkeypatch):
    # the planted rank-one pair fails at its Gram and adds none of its weights
    real = sympair.builtin_pairs
    planted = sympair.RestrictedPair("planted", ((Fraction(-2),),), (Fraction(0),))
    monkeypatch.setattr(sympair, "builtin_pairs", lambda m, n: [planted] + real(m, n))
    result = verify.check_casimir_positivity()
    assert not result.passed
    assert result.detail.endswith("; 1756 cases, 1 failures, first ('planted', 'gram')")


@pytest.mark.parametrize("seed", [20240001, 7])
def test_verify_json_matches_the_recorded_output(capsys, seed):
    # recorded from `supervol verify --format json --seed <seed>`: a change
    # to any sweep's scope, case count or outcome shows here
    code = cli.main(["verify", "--format", "json", "--seed", str(seed)])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"verify_seed{seed}.jsonl").read_text()
