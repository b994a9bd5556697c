"""Replay of golden CLI output, byte for byte, shared by the golden tests.

Each line of a golden file under ``data/`` holds one argv and the exit code,
stdout and stderr of ``cli.main`` on it, run at a terminal width of 80
columns (argparse wraps its help to the terminal).  Each golden test file
keeps its own ``CASES`` and records its lines again when run as a script,
for example ``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

import contextlib
import functools
import io
import json
import os
from pathlib import Path
from unittest import mock

from supervol import cli

DATA = Path(__file__).parent / "data"


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, COLUMNS="80"),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def load(name: str) -> dict[tuple[str, ...], dict]:
    """The recorded cases of ``data/<name>``, by argv."""
    lines = (json.loads(line) for line in (DATA / name).read_text().splitlines())
    return {tuple(case["argv"]): case for case in lines}


def record(name: str, cases: list[list[str]]):
    """Write the output of every case to ``data/<name>``, one line each."""
    (DATA / name).write_text("".join(json.dumps(run(argv), ensure_ascii=False) + "\n"
                                     for argv in cases))
