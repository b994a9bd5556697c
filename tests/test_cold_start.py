"""The cold path of each CLI verb imports only the modules it uses, and
parses with the subparser of that verb alone.

Every import case runs in a fresh interpreter, since ``sys.modules`` only grows.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supervol import cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that no verb may load: importing ``dataclasses`` takes about
# 10 ms (``python -X importtime``), 9 of them in ``inspect``.
NEVER = {"dataclasses", "inspect"}

# The supervol modules that every verb loads: the package, the CLI and the
# exact-value helpers.  ``exactnum`` (the linear algebra) loads only for the
# verbs whose modules compute with matrices or forms.
BASE = ("supervol", "supervol.cli", "supervol.exactvalue")

# Each verb at a small size, and the other supervol modules it loads.
CASES = [
    (["volume", "1", "1", "3", "2"], {"grassvol"}),
    (["sdim", "2", "0", "3", "4"], {"grassvol"}),
    (["dims", "1", "1", "2", "2"], {"grassvol"}),
    (["qvolume", "2", "4"], {"grassvol", "qlocal"}),
    (["qvolume", "2", "4", "--brute"], {"grassvol", "qlocal"}),
    (["c-table", "4"], {"qlocal"}),
    (["c-table", "4", "--brute"], {"qlocal"}),
    (["localize", "2", "4"], {"qlocal"}),
    (["defect", "gl", "2", "3"], {"exactnum", "rootsys"}),
    (["splitting", "gl", "1", "1", "3", "2"], {"grassvol", "splitting"}),
    (["splitting", "q", "1", "3"], {"grassvol", "splitting"}),
    (["chain", "GL", "3", "2"], {"grassvol", "splitting"}),
    (["chain", "Q", "5"], {"grassvol", "splitting"}),
    (["casimir", "g12", "1,0"], {"exactnum", "sympair"}),
    (["verify", "--max-n", "1", "--max-n-c", "2"],
     {"exactnum", "grassvol", "qlocal", "rootsys", "splitting", "sympair", "verify"}),
]
IDS = [" ".join(argv) for argv, _ in CASES]


def loaded_modules(script: str, *argv: str) -> set[str]:
    """``sys.modules`` at the end of ``script``, which prints it last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv, loads", CASES, ids=IDS)
def test_verb_loads_only_its_modules(argv, loads):
    script = ("import sys\n"
              "from supervol import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print('\\n' + ' '.join(sys.modules))\n"
              "sys.exit(code)\n")
    modules = loaded_modules(script, *argv, "--format", "json")
    assert {m for m in modules if m.split(".")[0] == "supervol"} == \
        {*BASE, *(f"supervol.{m}" for m in loads)}
    assert not modules & NEVER


@pytest.mark.parametrize("argv", [argv for argv, _ in CASES], ids=IDS)
def test_one_verb_parser_parses_as_the_full_parser(argv):
    argv = [*argv, "--format", "json"]
    parser = cli.build_parser(argv[0])
    [verbs] = parser._subparsers._group_actions
    assert list(verbs.choices) == [argv[0]]
    assert parser.parse_known_args(argv) == cli.build_parser().parse_known_args(argv)


def test_exact_value_helpers_import_nothing_from_supervol():
    modules = loaded_modules("import sys, supervol.exactvalue\nprint(' '.join(sys.modules))")
    assert {m for m in modules if m.startswith("supervol.")} == {"supervol.exactvalue"}
    tree = ast.parse((SRC / "supervol" / "exactvalue.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert imported == {"__future__", "fractions", "math"}


def test_import_supervol_loads_no_submodule():
    modules = loaded_modules("import sys, supervol\nprint(' '.join(sys.modules))")
    assert "supervol" in modules
    assert not {m for m in modules if m.startswith("supervol.")}

