import contextlib
import inspect
import io
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supervol import cli, qlocal, rootsys, splitting, sympair
from supervol.grassvol import GrassSpec, VolumeExpr, volume
from supervol.schema import ENVELOPE_SCHEMA, VOLUME_EXPR_SCHEMA

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def main_json(*argv, at=1):
    """The schema-checked JSON envelope of one successful CLI call, with
    ``--format json`` inserted at position ``at`` of argv.  It needs no
    fixture, so Hypothesis tests can use it too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv[:at], "--format", "json", *argv[at:]])
    assert code == 0, err.getvalue()
    envelope = json.loads(out.getvalue())
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    assert envelope["command"] == argv[0]
    return envelope


def test_volume_text(capsys):
    code, out, _ = run_cli(capsys, "volume", "1", "1", "2", "2")
    assert code == 0
    assert out.strip() == "2·(2π)^2"


def test_volume_json_round_trip(capsys):
    envelope = main_json("volume", "1", "1", "2", "2")
    jsonschema.validate(envelope["result"], VOLUME_EXPR_SCHEMA)
    expr = volume(GrassSpec(1, 1, 2, 2))
    assert expr == VolumeExpr.make(2, 2)
    assert envelope["result"] == expr.to_payload()
    assert isinstance(envelope["result"]["coeff"], str)
    assert envelope["params"] == {"r": 1, "s": 1, "m": 2, "n": 2}
    # text and json carry the same numeric content
    _, text, _ = run_cli(capsys, "volume", "1", "1", "2", "2")
    assert expr.render() == text.strip()


def _grass_argvs(max_mn):
    for m, n in itertools.product(range(max_mn + 1), repeat=2):
        for r, s in itertools.product(range(m + 1), range(n + 1)):
            yield [str(r), str(s), str(m), str(n)]


@pytest.mark.parametrize("name, argvs", [
    ("volume_mn4.txt", [["volume", *a] for a in _grass_argvs(4)]),
    ("volume_mn4.jsonl", [["volume", "--format", "json", *a] for a in _grass_argvs(4)]),
    ("qvolume_n6.jsonl", [["qvolume", "--format", "json", str(r), str(n)]
                          for n in range(7) for r in range(n + 1)]),
])
def test_volume_output_matches_the_recorded_output(capsys, name, argvs):
    # recorded from the CLI, one call per spec in this order: a change to
    # the volume representation that shows in any output shows here
    out = []
    for argv in argvs:
        assert cli.main(argv) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (DATA / name).read_text()


def test_volume_json_with_atoms():
    envelope = main_json("volume", "2", "1", "4", "2")
    jsonschema.validate(envelope["result"], VOLUME_EXPR_SCHEMA)
    assert envelope["result"]["coeff"] == "-2"
    assert envelope["result"]["two_pi_power"] == 4
    assert envelope["result"]["atoms"] == [{"a": 1, "b": 2, "exp": 1}]


def test_qvolume(capsys):
    code, out, _ = run_cli(capsys, "qvolume", "1", "2")
    assert code == 0
    assert "C(1,2) = 0" in out and "volume = 0" in out
    envelope = main_json("qvolume", "2", "4", "--brute")
    assert envelope["result"]["c"] == "2"
    assert envelope["result"]["brute_force_agrees_with_closed_form"] is True
    assert envelope["result"]["volume"]["two_pi_power"] == 8


def test_sdim_and_dims(capsys):
    code, out, _ = run_cli(capsys, "sdim", "2", "0", "3", "4")
    assert code == 0 and out.strip() == "-6"
    envelope = main_json("dims", "1", "1", "2", "2")
    assert envelope["result"] == {"even": 2, "odd": 2}


def test_defect(capsys):
    code, out, _ = run_cli(capsys, "defect", "gl", "2", "3")
    assert code == 0 and out.strip() == "2"
    envelope = main_json("defect", "d21a", "1/2")
    assert envelope["result"] == 1
    code, out, _ = run_cli(capsys, "defect", "g3")
    assert code == 0 and out.strip() == "1"
    envelope = main_json("defect", "gl", "8", "8")
    assert envelope["result"] == 8
    assert envelope["rules"] == ["witt-index-bound"]


# the text line, the JSON result and the JSON params of each verb below
_NEGATIVE_VALUE_OUTPUT = {
    "defect": ("1", 1, {"family": "d21a", "params": ["-1/2"]}),
    "casimir": ("(weight + 2 rho, weight) = 16 (positive: True)",
                {"eigenvalue": "16", "positive": True, "dominant": False},
                {"pair": "g(1|2)/d(1,2;3)", "weight": ["-1", "2"]}),
}


@pytest.mark.parametrize("argv", [
    ["defect", "d21a", "-1/2"],
    ["defect", "d21a", "--", "-1/2"],
    ["casimir", "g12", "-1,2"],
], ids=" ".join)
def test_negative_values_parse_with_format_anywhere(capsys, argv):
    # argparse would take "-1/2" and "-1,2" for options, and a "--format"
    # after "--" for a value
    text, result, params = _NEGATIVE_VALUE_OUTPUT[argv[0]]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == text + "\n"
    for at in range(1, len(argv) + 1):
        envelope = main_json(*argv, at=at)
        assert (envelope["result"], envelope["params"]) == (result, params), at


@pytest.mark.parametrize("argv, unknown", [
    (["defect", "gl", "2", "3", "--bogus"], "--bogus"),
    (["defect", "gl", "--bogus", "2", "3"], "--bogus 2 3"),
    (["volume", "1", "1", "2", "2", "-1/2"], "-1/2"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_unknown_arguments_are_named(capsys, argv, unknown):
    # defect takes the values that argparse leaves after an option as its
    # params, but never an option, and no other verb takes any
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {unknown}\n")


def test_uncertified_defect_is_a_domain_error(capsys, monkeypatch):
    bound = rootsys._witt_bound
    monkeypatch.setattr(rootsys, "_witt_bound", lambda gram: bound(gram) + 1)
    with pytest.raises(ValueError, match=r"defect of gl\(2, 3\) not certified"):
        rootsys.defect(rootsys.build_root_system("gl", 2, 3))
    code, out, err = run_cli(capsys, "defect", "gl", "2", "3")
    assert code == 1 and out == ""
    assert "not certified" in err


def test_c_table():
    envelope = main_json("c-table", "4", "--brute")
    rows = envelope["result"]
    assert rows[2]["values"] == [1, 0, 1]
    assert rows[-1]["brute_force_agrees"] is True


def test_c_table_brute_reaches_the_subset_sum_bound(monkeypatch):
    bounds = []

    def record(nmax, seed, count):
        bounds.append(nmax)
        return {}

    monkeypatch.setattr(qlocal, "brute_c_table", record)
    assert main_json("c-table", "14", "--brute")["result"][-1] == {"brute_force_agrees": True}
    main_json("c-table", "16", "--brute")
    assert bounds == [14, cli.MAX_N_C]


def test_cli_subset_sum_bound_is_qlocal_bound():
    # cli keeps its own copy so that parsing imports no kernel module
    assert cli.MAX_N_C == qlocal.MAX_N


def test_cli_parameter_counts_are_the_library_arities():
    # copies too, for the same reason: the splitting criteria's parameter
    # names, and the arities of the chain families
    assert cli.PARAM_COUNTS["splitting"] == {
        kind.lower(): len(names) for kind, (_, names, *_) in splitting.LEVI_CRITERIA.items()}
    assert set(cli.SPLITTING_RULES) == set(cli.PARAM_COUNTS["splitting"])
    assert cli.PARAM_COUNTS["chain"] == {
        family: len(inspect.signature(getattr(splitting, family)).parameters)
        for family in ("GL", "Q")}


def test_localize():
    envelope = main_json("localize", "2", "4")
    assert envelope["result"]["fixed_points"] == 6
    assert envelope["result"]["all_samples_agree"] is True


def test_splitting_predicates():
    envelope = main_json("splitting", "gl", "2", "0", "3", "4")
    assert envelope["result"] == {"splitting": False, "sdim": -6}
    envelope = main_json("splitting", "q", "1", "2")
    assert envelope["result"] == {"splitting": False, "parity_product": 1}
    envelope = main_json("splitting", "q", "1", "3")
    assert envelope["result"]["splitting"] is True


def test_chain_gl32_json():
    envelope = main_json("chain", "GL", "3", "2")
    result = envelope["result"]
    assert result["validated"] is True
    assert result["bottom"] == "SL(1|1)^2"
    assert len(result["steps"]) == 4
    envelope = main_json("chain", "Q", "5")
    assert envelope["result"]["bottom"] == "Q(2)^2×Q(1)"


def test_chain_that_fails_validation_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(splitting.SubgroupChain, "validate", lambda chain: False)
    for argv in (("chain", "GL", "2", "1"), ("chain", "Q", "5", "--format", "json")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", "error: constructed chain failed validation\n")


def test_casimir():
    envelope = main_json("casimir", "g12", "1,0")
    assert envelope["result"] == {"eigenvalue": "12", "positive": True,
                                  "dominant": False}
    envelope = main_json("casimir", "osp", "1", "--m", "1", "--n", "3")
    assert envelope["result"]["positive"] is True


@pytest.mark.parametrize("argv", [
    ["splitting", "GL", "1", "1", "3", "2"],
    ["defect", "Gl", "2", "2"],
    ["casimir", "G12", "1,0"],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_family_names_are_case_insensitive(capsys, argv, fmt):
    verb, family, *rest = argv
    lower = run_cli(capsys, verb, family.lower(), *rest, "--format", fmt)
    assert lower[0] == 0
    assert run_cli(capsys, verb, family, *rest, "--format", fmt) == lower


def test_casimir_computes_the_eigenvalue_once(capsys, monkeypatch):
    calls = []
    real = sympair.casimir_eigenvalue

    def counted(pair, weight):
        calls.append(weight)
        return real(pair, weight)

    monkeypatch.setattr(sympair, "casimir_eigenvalue", counted)
    monkeypatch.setattr(sympair, "positivity_check", None)
    code, out, _ = run_cli(capsys, "casimir", "g12", "1/2,-3/4")
    assert code == 0 and calls == [[Fraction(1, 2), Fraction(-3, 4)]]
    assert out == "(weight + 2 rho, weight) = 75/8 (positive: True)\n"
    # w = -2 rho is nonzero with (w + 2 rho, w) = 0, which is not positive
    code, out, _ = run_cli(capsys, "casimir", "g12", "--", "-2,-2")
    assert code == 0 and out == "(weight + 2 rho, weight) = 0 (positive: False)\n"
    code, out, err = run_cli(capsys, "casimir", "g12", "0,0")
    assert code == 1 and out == "" and err == "error: excluded by hypothesis\n"
    # a wrong-length weight is a dimension mismatch, zero or not
    code, _, err = run_cli(capsys, "casimir", "g12", "0,0,0")
    assert code == 1 and err == "error: dimension mismatch\n"


# Gram matrices and rho of the built-in pairs, written out independently
# of supervol.sympair.
_CASIMIR_PAIRS = {
    "g12": ([[6, -3], [-3, 2]], [1, 1]),
    "f31": ([[6, -3, 0], [-3, 16, -4], [0, -4, 8]], [1, 2, 3]),
}


@st.composite
def _casimir_cases(draw):
    choice = draw(st.sampled_from(["g12", "f31", "osp"]))
    if choice == "osp":
        n = draw(st.integers(1, 4))
        m = draw(st.integers(0, n - 1))
        opts, gram, rho = ["--m", str(m), "--n", str(n)], [[2]], [n - m - 1]
    else:
        opts, (gram, rho) = [], _CASIMIR_PAIRS[choice]
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    weight = draw(st.lists(coeff, min_size=len(gram), max_size=len(gram))
                  .filter(any))
    return choice, opts, gram, rho, weight


@settings(max_examples=40, deadline=None)
@given(_casimir_cases(), st.booleans(), st.integers(0, 4))
@example(("g12", [], *_CASIMIR_PAIRS["g12"], [Fraction(-1, 2), Fraction(3)]), False, 2)
def test_casimir_json_matches_gram_formula(case, dashes, at):
    # negative coefficients go in as they are or after "--", and --format
    # json between any two arguments but an option and its value
    choice, opts, gram, rho, weight = case
    argv = ["casimir", choice, *(["--"] if dashes else []), ",".join(str(w) for w in weight)]
    slots = list(range(1, len(argv) + 1))
    envelope = main_json(*argv, *opts, at=slots[at % len(slots)])
    k = len(gram)
    value = sum((weight[i] + 2 * rho[i]) * gram[i][j] * weight[j]
                for i in range(k) for j in range(k))
    dominant = all(sum(weight[i] * gram[i][j] for i in range(k)) >= 0
                   for j in range(k))
    assert envelope["params"]["weight"] == [str(w) for w in weight]
    assert envelope["result"] == {"eigenvalue": str(Fraction(value)),
                                  "positive": value > 0, "dominant": dominant}


# Each verb's JSON result against its formula, written out here
# independently of supervol, on small random inputs.

@st.composite
def _grass_args(draw, top=5):
    m, n = draw(st.integers(0, top)), draw(st.integers(0, top))
    return draw(st.integers(0, m)), draw(st.integers(0, n)), m, n


def _sdim(r, s, m, n):
    return (r - s) * ((m - r) - (n - s))


def _volume_formula(r, s, m, n):
    """Zero for negative sdim, else (-1)^(s(m+n+r+s)) binom(n, s)
    (2pi)^odd V(r-s, m-n) after the swap to r > s, or r = s and m >= n."""
    if _sdim(r, s, m, n) < 0:
        return {"coeff": "0", "two_pi_power": 0, "atoms": []}
    if r < s or (r == s and m < n):
        r, s, m, n = s, r, n, m
    a, b = r - s, m - n
    atoms = [] if a in (0, b) else [{"a": min(a, b - a), "b": b, "exp": 1}]
    return {"coeff": str((-1) ** (s * (m + n + r + s)) * math.comb(n, s)),
            "two_pi_power": r * (n - s) + s * (m - r), "atoms": atoms}


def _gaussian_binomial_at_minus_one(n, r):
    """[n choose r]_t at t = -1 by the q-Pascal rule
    [n, r] = [n-1, r-1] + t^r [n-1, r]; it equals C(r, n)."""
    if r < 0 or r > n:
        return 0
    if r in (0, n):
        return 1
    return (_gaussian_binomial_at_minus_one(n - 1, r - 1)
            + (-1) ** r * _gaussian_binomial_at_minus_one(n - 1, r))


def _label(atom, k):
    return atom + (f"^{k}" if k > 1 else "")


@settings(max_examples=30, deadline=None)
@given(_grass_args())
@example((2, 1, 4, 2))  # a negative sign and an atom
def test_volume_json_matches_formula(args):
    envelope = main_json("volume", *map(str, args))
    jsonschema.validate(envelope["result"], VOLUME_EXPR_SCHEMA)
    assert envelope["result"] == _volume_formula(*args)
    assert envelope["params"] == dict(zip("rsmn", args))


@settings(max_examples=30, deadline=None)
@given(_grass_args())
def test_sdim_json_matches_formula(args):
    assert main_json("sdim", *map(str, args))["result"] == _sdim(*args)


@settings(max_examples=30, deadline=None)
@given(_grass_args())
def test_dims_json_matches_formula(args):
    r, s, m, n = args
    assert main_json("dims", *map(str, args))["result"] == {
        "even": r * (m - r) + s * (n - s), "odd": r * (n - s) + s * (m - r)}


@settings(max_examples=30, deadline=None)
@given(_grass_args())
def test_splitting_gl_json_matches_formula(args):
    value = _sdim(*args)
    assert main_json("splitting", "gl", *map(str, args))["result"] == {
        "splitting": value >= 0, "sdim": value}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_splitting_q_json_matches_formula(args):
    r, n = args
    assert main_json("splitting", "q", str(r), str(n))["result"] == {
        "splitting": r * (n - r) % 2 == 0, "parity_product": r * (n - r)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_chain_gl_json_matches_formula(m, n):
    result = main_json("chain", "GL", str(m), str(n))["result"]
    d = min(m, n)
    # bottom-up: SL(1|1)^d < GL(1|1)^d [< GL(1|1)^d x GL(m-d|n-d)] < ... < GL(m|n)
    if (m, n) == (0, 0):
        rules = []
    elif d == 0:
        rules = ["ODD_PARTS_EQUAL"]
    else:
        rules = (["ODD_PARTS_EQUAL"] + (["FACTOR_SPLIT"] if m != n else [])
                 + ["LEVI_GL"] * (d if m != n else d - 1))
    assert [step["rule"] for step in result["steps"]] == rules
    assert result["top"] == ("1" if (m, n) == (0, 0) else f"GL({m}|{n})")
    assert result["bottom"] == (_label("SL(1|1)", d) if d else "1")
    assert result["groups"][0] == result["bottom"]
    assert result["groups"][-1] == result["top"]
    assert result["validated"] is True


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12))
def test_chain_q_json_matches_formula(n):
    result = main_json("chain", "Q", str(n))["result"]
    k = (n - 1) // 2 if n else 0  # Q(2) factors peeled off
    assert [step["rule"] for step in result["steps"]] == ["LEVI_Q"] * k
    if n == 0:
        bottom = "1"
    elif n % 2:
        bottom = "×".join(([_label("Q(2)", k)] if k else []) + ["Q(1)"])
    else:
        bottom = _label("Q(2)", n // 2)
    assert result["bottom"] == bottom
    assert result["top"] == ("1" if n == 0 else f"Q({n})")
    assert result["validated"] is True


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_qvolume_json_matches_formula(args):
    r, n = args
    c = _gaussian_binomial_at_minus_one(n, r)
    assert main_json("qvolume", str(r), str(n))["result"] == {
        "c": str(c), "volume": {"coeff": str(c), "atoms": [],
                                "two_pi_power": 2 * r * (n - r) if c else 0}}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12))
def test_c_table_json_matches_formula(nmax):
    assert main_json("c-table", str(nmax))["result"] == [
        {"n": n, "values": [_gaussian_binomial_at_minus_one(n, r) for r in range(n + 1)]}
        for n in range(nmax + 1)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
       st.integers(1, 3), st.integers(0, 10 ** 6))
def test_localize_json_matches_formula(args, samples, seed):
    r, n = args
    envelope = main_json("localize", str(r), str(n), "--samples", str(samples),
                         "--seed", str(seed))
    assert envelope["result"] == {"sum": str(math.comb(n, r)),
                                  "fixed_points": math.comb(n, r),
                                  "all_samples_agree": True}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_defect_gl_json_matches_formula(m, n):
    envelope = main_json("defect", "gl", str(m), str(n))
    assert envelope["result"] == min(m, n)
    assert envelope["params"] == {"family": "gl", "params": [str(m), str(n)]}


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda a: a not in (0, -1)),
       st.booleans(), st.integers(1, 3))
@example(Fraction(-1, 2), False, 3)
@example(Fraction(-3), True, 3)
def test_defect_d21a_json_matches_formula(alpha, dashes, at):
    # D(2,1;alpha) has defect 1 for every alpha outside {0, -1}
    argv = ["defect", "d21a", *(["--"] if dashes else []), str(alpha)]
    envelope = main_json(*argv, at=min(at, len(argv)))
    assert envelope["result"] == 1
    assert envelope["params"] == {"family": "d21a", "params": [str(alpha)]}


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "volume", "3", "0", "2", "2")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "casimir", "osp", "1", "--m", "3", "--n", "2")
    assert code == 1 and "n > m" in err
    code, _, err = run_cli(capsys, "casimir", "osp", "1", "--m", "-1", "--n", "3")
    assert code == 1 and "n > m >= 0" in err
    for argv in (["gl", "--", "-1", "2"], ["osp", "3", "3"], ["d21a", "0"],
                 ["d21a", "--", "-1"]):
        code, _, err = run_cli(capsys, "defect", *argv)
        assert code == 1 and "error:" in err, argv


def test_usage_error_exit_code(capsys):
    for argv in (["no-such-verb"], ["volume", "1", "1", "2"],
                 ["splitting", "gl", "1", "1"], ["splitting", "q", "1", "2", "3", "4"],
                 ["chain", "GL", "3"], ["chain", "Q", "1", "2"], ["chain", "SL", "2"],
                 ["casimir", "osp", "1"], ["casimir", "osp", "1", "--m", "1"],
                 ["casimir", "g12", "1,0", "--m", "1"],
                 ["verify", "--max-n-c", "15"], ["verify", "--max-n", "17"],
                 ["defect", "gl", "2"], ["defect", "gl", "2", "3", "4"],
                 ["defect", "g3", "1"], ["defect", "d21a"],
                 ["defect", "gl", "2", "x"], ["casimir", "g12", "1,x"],
                 ["defect", "d21a", "1/0"], ["casimir", "g12", "1,1/0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv, message", [
    (["splitting", "gl", "1", "1"], "splitting gl requires 4 parameters, got 2"),
    (["splitting", "q", "1", "2", "3", "4"], "splitting q requires 2 parameters, got 4"),
    (["chain", "GL", "3"], "chain GL requires 2 parameters, got 1"),
    (["chain", "q", "1", "2"], "chain Q requires 1 parameter, got 2"),
    (["defect", "d21a"], "defect d21a requires 1 parameter, got 0"),
    (["defect", "gl", "2", "3", "4"], "defect gl requires 2 parameters, got 3"),
], ids=" ".join)
def test_wrong_parameter_count_names_verb_and_family(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["c-table", "-1"],
    ["c-table", "3", "--brute", "--samples", "0"],
    ["qvolume", "2", "4", "--brute", "--samples", "0"],
    ["localize", "2", "4", "--samples", "0"],
    ["verify", "--max-n", "-1"],
    ["verify", "--max-n-c", "-1"],
], ids=" ".join)
def test_empty_sample_or_sweep_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_localize_is_bounded(capsys):
    code, _, err = run_cli(capsys, "localize", "7", "15")
    assert code == 1 and "bounded at n <= 14" in err


def test_disagreement_exits_one(capsys, monkeypatch):
    real = qlocal.c_bruteforce
    real_table = qlocal.brute_c_table

    def off_by_one(r, n, samples):
        report = real(r, n, samples)
        return report._replace(consensus=report.consensus + 1)

    def table_off_by_one(nmax, seed, count):
        return {case: value + 1 for case, value in real_table(nmax, seed, count).items()}

    monkeypatch.setattr(qlocal, "c_bruteforce", off_by_one)
    monkeypatch.setattr(qlocal, "brute_c_table", table_off_by_one)
    code, out, _ = run_cli(capsys, "c-table", "3", "--brute")
    assert code == 1 and "brute force agrees: False" in out
    code, out, _ = run_cli(capsys, "qvolume", "2", "4", "--brute", "--format", "json")
    assert code == 1
    assert json.loads(out)["result"]["brute_force_agrees_with_closed_form"] is False
    monkeypatch.setattr(qlocal, "gl_localization", lambda r, n, a: 0)
    code, out, _ = run_cli(capsys, "localize", "2", "4", "--format", "json")
    assert code == 1 and json.loads(out)["result"]["all_samples_agree"] is False
    code, out, _ = run_cli(capsys, "localize", "2", "4")
    assert code == 1 and "localization sum = 0 " in out


def test_verify_json_lines_deterministic(capsys):
    argv = ["verify", "--seed", "5", "--max-n", "3", "--max-n-c", "5",
            "--format", "json"]
    code = cli.main(list(argv))
    first = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in first.strip().splitlines()]
    assert lines[-1]["failed"] == 0
    for entry in lines[:-1]:
        assert set(entry) == {"check", "passed", "detail"}
        assert entry["passed"] is True
    code = cli.main(list(argv))
    second = capsys.readouterr().out
    assert first == second


def test_verify_fails_when_no_recursion_case_is_covered(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "0", "--max-n-c", "0",
                           "--format", "json")
    assert code == 1
    lines = [json.loads(line) for line in out.strip().splitlines()]
    [recursions] = [e for e in lines if e.get("check") == "c-recursions-and-symmetry"]
    assert recursions["passed"] is False
    assert recursions["detail"].endswith("; part 2 of 2 covered no case")
    assert lines[-1] == {"passed": 19, "failed": 1}
