"""Golden help and usage-error output of the CLI, byte for byte.

Each line of ``data/cli_usage.jsonl`` holds one argv and the exit code,
stdout and stderr of ``cli.main`` on it, at a fixed terminal width of 80
columns (argparse wraps its help to the terminal).  Run this file as a
script to record the lines again: ``PYTHONPATH=src python tests/test_cli_usage.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from supervol import cli

GOLDEN = Path(__file__).parent / "data" / "cli_usage.jsonl"
COLUMNS = "80"
VERBS = ["volume", "qvolume", "sdim", "dims", "defect", "c-table", "localize",
         "splitting", "chain", "casimir", "verify"]

CASES = [
    ["-h"],
    *([verb, "-h"] for verb in VERBS),
    [],
    ["bogus"],
    ["--format", "json", "volume", "1", "1", "3", "2"],
    # argparse's own errors inside one verb
    ["volume", "1", "1"],
    ["defect", "e8"],
    ["chain", "GL", "x", "2"],
    # _normalize_args: unrecognized arguments
    ["volume", "1", "1", "3", "2", "--bogus"],
    ["sdim", "1", "1", "3", "2", "7"],
    ["defect", "gl", "2", "--bogus", "3"],
    ["qvolume", "1", "3", "--format", "json", "extra"],
    # _normalize_args: wrong parameter counts
    ["defect", "gl", "2"],
    ["defect", "d21a"],
    ["defect", "g3", "1"],
    ["splitting", "q", "1"],
    ["splitting", "gl", "1", "1", "3"],
    ["chain", "GL", "3"],
    ["chain", "Q", "3", "4"],
    # _normalize_args: the casimir --m/--n rules
    ["casimir", "osp", "1,0"],
    ["casimir", "osp", "1,0", "--m", "1"],
    ["casimir", "g12", "1,0", "--m", "1"],
    ["casimir", "f31", "1,0,0", "--n", "2"],
    # _normalize_args: malformed rationals
    ["defect", "d21a", "x"],
    ["defect", "d21a", "1/0"],
    ["casimir", "g12", "1,a"],
    # _int_in_range
    ["qvolume", "1", "3", "--samples", "0"],
    ["c-table", "-1"],
    ["c-table", "2", "--samples", "0"],
    ["localize", "1", "3", "--samples", "-2"],
    ["verify", "--max-n", "-1"],
    ["verify", "--max-n", "17"],
    ["verify", "--max-n-c", "15"],
    ["verify", "--max-n-c", "x"],
]


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden() -> dict[tuple[str, ...], dict]:
    lines = (json.loads(line) for line in GOLDEN.read_text().splitlines())
    return {tuple(case["argv"]): case for case in lines}


def test_golden_covers_every_case():
    assert list(golden()) == [tuple(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) or "(none)" for argv in CASES])
def test_usage_output_is_unchanged(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run(argv) == golden()[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text("".join(json.dumps(run(argv), ensure_ascii=False) + "\n"
                              for argv in CASES))
