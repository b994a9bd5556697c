import contextlib
import dataclasses
import io
import json
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supervol import cli, qlocal, rootsys
from supervol.grassvol import VolumeExpr
from supervol.schema import ENVELOPE_SCHEMA, VOLUME_EXPR_SCHEMA


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    envelope = json.loads(out)
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    return envelope


def test_volume_text(capsys):
    code, out, _ = run_cli(capsys, "volume", "1", "1", "2", "2")
    assert code == 0
    assert out.strip() == "2·(2π)^2"


def test_volume_json_round_trip(capsys):
    envelope = run_json(capsys, "volume", "1", "1", "2", "2")
    jsonschema.validate(envelope["result"], VOLUME_EXPR_SCHEMA)
    expr = VolumeExpr.from_payload(envelope["result"])
    assert expr == VolumeExpr.make(2, 2)
    assert envelope["params"] == {"r": 1, "s": 1, "m": 2, "n": 2}
    # text and json carry the same numeric content
    _, text, _ = run_cli(capsys, "volume", "1", "1", "2", "2")
    assert expr.render() == text.strip()


def test_volume_json_with_atoms(capsys):
    envelope = run_json(capsys, "volume", "2", "1", "4", "2")
    jsonschema.validate(envelope["result"], VOLUME_EXPR_SCHEMA)
    assert envelope["result"]["coeff"] == "-2"
    assert envelope["result"]["two_pi_power"] == 4
    assert envelope["result"]["atoms"] == [{"a": 1, "b": 2, "exp": 1}]


def test_qvolume(capsys):
    code, out, _ = run_cli(capsys, "qvolume", "1", "2")
    assert code == 0
    assert "C(1,2) = 0" in out and "volume = 0" in out
    envelope = run_json(capsys, "qvolume", "2", "4", "--brute")
    assert envelope["result"]["c"] == "2"
    assert envelope["result"]["brute_force_agrees_with_closed_form"] is True
    assert envelope["result"]["volume"]["two_pi_power"] == 8


def test_sdim_and_dims(capsys):
    code, out, _ = run_cli(capsys, "sdim", "2", "0", "3", "4")
    assert code == 0 and out.strip() == "-6"
    envelope = run_json(capsys, "dims", "1", "1", "2", "2")
    assert envelope["result"] == {"even": 2, "odd": 2}


def test_defect(capsys):
    code, out, _ = run_cli(capsys, "defect", "gl", "2", "3")
    assert code == 0 and out.strip() == "2"
    envelope = run_json(capsys, "defect", "d21a", "1/2")
    assert envelope["result"] == 1
    code, out, _ = run_cli(capsys, "defect", "g3")
    assert code == 0 and out.strip() == "1"
    envelope = run_json(capsys, "defect", "gl", "8", "8")
    assert envelope["result"] == 8
    assert envelope["rules"] == ["witt-index-bound"]


def test_defect_rules_and_budget(capsys, monkeypatch):
    bound = rootsys.witt_index
    monkeypatch.setattr(rootsys, "witt_index", lambda system: bound(system) + 1)
    envelope = run_json(capsys, "defect", "gl", "2", "3")
    assert envelope["result"] == 2
    assert envelope["rules"] == ["maximal-orthogonal-isotropic-search"]
    monkeypatch.setattr(rootsys, "SEARCH_NODE_BUDGET", 1)
    code, out, err = run_cli(capsys, "defect", "gl", "2", "3")
    assert code == 1 and out == ""
    assert "defect search on gl(2, 3) exceeded 1 nodes" in err


def test_c_table(capsys):
    envelope = run_json(capsys, "c-table", "4", "--brute")
    rows = envelope["result"]
    assert rows[2]["values"] == [1, 0, 1]
    assert rows[-1]["brute_force_agrees"] is True


def test_localize(capsys):
    envelope = run_json(capsys, "localize", "2", "4")
    assert envelope["result"]["fixed_points"] == 6
    assert envelope["result"]["all_samples_agree"] is True


def test_splitting_predicates(capsys):
    envelope = run_json(capsys, "splitting", "gl", "2", "0", "3", "4")
    assert envelope["result"] == {"splitting": False, "sdim": -6}
    envelope = run_json(capsys, "splitting", "q", "1", "2")
    assert envelope["result"] == {"splitting": False, "parity_product": 1}
    envelope = run_json(capsys, "splitting", "q", "1", "3")
    assert envelope["result"]["splitting"] is True


def test_chain_gl32_json(capsys):
    envelope = run_json(capsys, "chain", "GL", "3", "2")
    result = envelope["result"]
    assert result["validated"] is True
    assert result["bottom"] == "SL(1|1)^2"
    assert len(result["steps"]) == 4
    envelope = run_json(capsys, "chain", "Q", "5")
    assert envelope["result"]["bottom"] == "Q(2)^2×Q(1)"


def test_casimir(capsys):
    envelope = run_json(capsys, "casimir", "g12", "1,0")
    assert envelope["result"] == {"eigenvalue": "12", "positive": True,
                                  "dominant": False}
    envelope = run_json(capsys, "casimir", "osp", "1", "--m", "1", "--n", "3")
    assert envelope["result"]["positive"] is True


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
@given(_casimir_cases())
def test_casimir_json_matches_gram_formula(case):
    choice, opts, gram, rho, weight = case
    argv = ["casimir", choice, *opts, "--format", "json", "--",
            ",".join(str(w) for w in weight)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    envelope = json.loads(out.getvalue())
    jsonschema.validate(envelope, ENVELOPE_SCHEMA)
    k = len(gram)
    value = sum((weight[i] + 2 * rho[i]) * gram[i][j] * weight[j]
                for i in range(k) for j in range(k))
    dominant = all(sum(weight[i] * gram[i][j] for i in range(k)) >= 0
                   for j in range(k))
    assert envelope["params"]["weight"] == [str(w) for w in weight]
    assert envelope["result"] == {"eigenvalue": str(Fraction(value)),
                                  "positive": value > 0, "dominant": dominant}


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "volume", "3", "0", "2", "2")
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli(capsys, "casimir", "osp", "1", "--m", "3", "--n", "2")
    assert code == 1 and "n > m" in err
    code, _, err = run_cli(capsys, "casimir", "osp", "1", "--m", "-1", "--n", "3")
    assert code == 1 and "n > m >= 0" in err


def test_usage_error_exit_code(capsys):
    for argv in (["no-such-verb"], ["volume", "1", "1", "2"],
                 ["splitting", "gl", "1", "1"], ["splitting", "q", "1", "2", "3", "4"],
                 ["chain", "GL", "3"], ["chain", "Q", "1", "2"], ["chain", "SL", "2"],
                 ["casimir", "osp", "1"], ["casimir", "osp", "1", "--m", "1"],
                 ["casimir", "g12", "1,0", "--m", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv


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

    def off_by_one(r, n, samples):
        report = real(r, n, samples)
        return dataclasses.replace(report, consensus=report.consensus + 1)

    monkeypatch.setattr(qlocal, "c_bruteforce", off_by_one)
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
    assert "no (r, n) case covered" in recursions["detail"]
    assert lines[-1] == {"passed": 19, "failed": 1}
