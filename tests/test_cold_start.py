"""The cold path of each CLI verb imports only the modules it uses.

Every case runs in a fresh interpreter, since ``sys.modules`` only grows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that no verb may load: importing ``dataclasses`` takes about
# 10 ms (``python -X importtime``), 9 of them in ``inspect``.
NEVER = {"dataclasses", "inspect"}

# Each verb at a small size; ``verify`` is loaded only where marked.
CASES = [
    (["volume", "1", "1", "3", "2"], False),
    (["sdim", "2", "0", "3", "4"], False),
    (["dims", "1", "1", "2", "2"], False),
    (["qvolume", "2", "4"], False),
    (["qvolume", "2", "4", "--brute"], False),
    (["c-table", "4"], False),
    (["c-table", "4", "--brute"], False),
    (["localize", "2", "4"], False),
    (["defect", "gl", "2", "3"], False),
    (["splitting", "gl", "1", "1", "3", "2"], False),
    (["splitting", "q", "1", "3"], False),
    (["chain", "GL", "3", "2"], False),
    (["chain", "Q", "5"], False),
    (["casimir", "g12", "1,0"], False),
    (["verify", "--max-n", "1", "--max-n-c", "2"], True),
]


def loaded_modules(script: str, *argv: str) -> set[str]:
    """``sys.modules`` at the end of ``script``, which prints it last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv, loads_verify", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_verb_loads_only_its_modules(argv, loads_verify):
    script = ("import sys\n"
              "from supervol import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print('\\n' + ' '.join(sys.modules))\n"
              "sys.exit(code)\n")
    modules = loaded_modules(script, *argv, "--format", "json")
    assert "supervol.cli" in modules
    assert ("supervol.verify" in modules) == loads_verify
    assert not modules & NEVER


def test_import_supervol_loads_no_submodule():
    modules = loaded_modules("import sys, supervol\nprint(' '.join(sys.modules))")
    assert "supervol" in modules
    assert not {m for m in modules if m.startswith("supervol.")}

