"""Every function and class that supervol defines is used by the program.

A name counts as used when an AST ``Name``, ``Attribute`` or import alias
in ``src/``, ``demos/`` or ``perfbench/`` mentions it; tests do not count.
A def directly in a class body is a member, reached only as an attribute,
so only an ``Attribute`` counts for it: a local variable of the same name
does not hide an unread member. The AST also sees uses that a search for
``def`` names misses, such as a method reached through an attribute of
another name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "supervol"
# Called by the standard library rather than by name: NamedTuple._replace
# builds its result through _make.
CALLED_IMPLICITLY = {"GrassSpec._make"}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(path, qualified name, bare name, is a class member) of every def and
    class in the package."""
    for path, tree in _trees(PACKAGE.relative_to(ROOT)):
        stack = [(tree, "", False)]
        while stack:
            node, prefix, in_class = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualified = prefix + child.name
                    yield path, qualified, child.name, in_class
                    stack.append((child, qualified + ".", isinstance(child, ast.ClassDef)))
                else:
                    stack.append((child, prefix, in_class))


def _references():
    """(every referenced name, the names referenced as attributes)."""
    names, attributes = set(), set()
    for _, tree in _trees("src", "demos", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names | attributes, attributes


def test_every_definition_is_referenced():
    used, attributes = _references()
    unused = [f"{path.relative_to(ROOT)}: {qualified}"
              for path, qualified, name, in_class in _definitions()
              if not (name.startswith("__") and name.endswith("__"))
              and qualified not in CALLED_IMPLICITLY
              and name not in (attributes if in_class else used)]
    assert not unused, unused
