"""Golden output of the verbs that no other golden file pins, byte for byte.

``data/cli_outputs.jsonl`` holds ``sdim``, ``dims``, ``splitting``,
``defect``, ``c-table``, ``localize``, ``casimir``, ``qvolume --brute`` and
a small-bound ``verify``, each in text and in JSON, with their domain
errors.  Run this file as a script to record the lines again:
``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

import pytest

from cli_golden import load, record, run

GOLDEN = "cli_outputs.jsonl"
QUERIES = [
    ["sdim", "2", "0", "3", "4"],
    ["sdim", "1", "1", "2", "2"],
    ["sdim", "0", "0", "0", "0"],
    ["sdim", "3", "1", "2", "2"],
    ["dims", "1", "1", "2", "2"],
    ["dims", "2", "1", "4", "3"],
    ["dims", "3", "0", "2", "2"],
    ["splitting", "gl", "1", "1", "3", "2"],
    ["splitting", "gl", "2", "0", "3", "4"],
    ["splitting", "gl", "0", "0", "0", "0"],
    ["splitting", "gl", "3", "0", "2", "2"],
    ["splitting", "q", "1", "2"],
    ["splitting", "q", "1", "3"],
    ["splitting", "q", "2", "4"],
    ["splitting", "q", "0", "0"],
    ["splitting", "q", "3", "2"],
    ["defect", "gl", "2", "3"],
    ["defect", "gl", "0", "0"],
    ["defect", "gl", "-1", "2"],
    ["defect", "sl", "2", "3"],
    ["defect", "sl", "1", "1"],
    ["defect", "osp", "3", "2"],
    ["defect", "osp", "2", "2"],
    ["defect", "osp", "1", "0"],
    ["defect", "d21a", "1"],
    ["defect", "d21a", "1/2"],
    ["defect", "d21a", "-1/2"],
    ["defect", "d21a", "-3"],
    ["defect", "d21a", "0"],
    ["defect", "d21a", "-1"],
    ["defect", "g3"],
    ["defect", "f4"],
    ["c-table", "0"],
    ["c-table", "6"],
    ["c-table", "0", "--brute"],
    ["c-table", "6", "--brute", "--samples", "2", "--seed", "5"],
    ["c-table", "16", "--brute"],
    ["localize", "2", "4"],
    ["localize", "0", "0"],
    ["localize", "3", "6", "--samples", "2", "--seed", "5"],
    ["localize", "7", "14"],
    ["localize", "7", "15"],
    ["localize", "3", "2"],
    ["casimir", "osp", "1", "--m", "1", "--n", "3"],
    ["casimir", "osp", "1/2", "--m", "2", "--n", "5"],
    ["casimir", "osp", "-1", "--m", "0", "--n", "4"],
    ["casimir", "osp", "0", "--m", "1", "--n", "3"],
    ["casimir", "osp", "1", "--m", "2", "--n", "2"],
    ["casimir", "osp", "1,0", "--m", "1", "--n", "3"],
    ["casimir", "g12", "1,0"],
    ["casimir", "g12", "1/2,-3/4"],
    ["casimir", "g12", "-2,-2"],
    ["casimir", "g12", "0,0"],
    ["casimir", "g12", "0,0,0"],
    ["casimir", "f31", "1,0,0"],
    ["casimir", "f31", "1,2,3"],
    ["casimir", "f31", "0,0,0"],
    ["casimir", "f31", "1,0"],
    ["qvolume", "2", "4", "--brute"],
    ["qvolume", "1", "3", "--brute", "--samples", "2", "--seed", "5"],
    ["qvolume", "0", "0", "--brute"],
    ["qvolume", "7", "14", "--brute"],
    ["qvolume", "7", "15", "--brute"],
    ["qvolume", "2", "1", "--brute"],
    ["verify", "--max-n", "2", "--max-n-c", "3"],
    ["verify", "--seed", "7", "--max-n", "1", "--max-n-c", "2"],
]
CASES = [argv + fmt for argv in QUERIES for fmt in ([], ["--format", "json"])]


def test_golden_covers_every_case():
    assert list(load(GOLDEN)) == [tuple(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_unchanged(argv):
    assert run(argv) == load(GOLDEN)[tuple(argv)]


if __name__ == "__main__":
    record(GOLDEN, CASES)
