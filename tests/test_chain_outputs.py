"""Golden ``chain`` output of the CLI, byte for byte.

Each line of ``data/chain_outputs.jsonl`` holds one argv and the exit code,
stdout and stderr of ``cli.main`` on it: ``chain GL m n`` for m, n <= 6 and
``chain Q n`` for n <= 12, in text and in JSON.  This pins the text form,
the labels and the order of every evidence dict.  Run this file as a script
to record the lines again: ``PYTHONPATH=src python tests/test_chain_outputs.py``.
"""

import itertools
import json
from pathlib import Path

import pytest

from test_cli_usage import run

GOLDEN = Path(__file__).parent / "data" / "chain_outputs.jsonl"
QUERIES = ([["chain", "GL", str(m), str(n)]
            for m, n in itertools.product(range(7), repeat=2)]
           + [["chain", "Q", str(n)] for n in range(13)])
CASES = [argv + fmt for argv in QUERIES for fmt in ([], ["--format", "json"])]


def golden() -> dict[tuple[str, ...], dict]:
    lines = (json.loads(line) for line in GOLDEN.read_text().splitlines())
    return {tuple(case["argv"]): case for case in lines}


def test_golden_covers_every_case():
    assert list(golden()) == [tuple(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_chain_output_is_unchanged(argv):
    assert run(argv) == golden()[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(run(argv), ensure_ascii=False) + "\n"
                              for argv in CASES))
