"""Every function and class in src/centpipe, public or private, is reached
by the program: code that only the tests call is deleted, not kept.

A module-level def or class counts as reached when src code outside its own
definition refers to it, as a Name or as an Attribute, or when a
perfbench/*.py file names it (the benchmark's tracer wraps some functions by
module and attribute name).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name -> why it stays although no src code refers to it
ALLOWED: dict[str, str] = {}


def _referenced(node) -> set:
    """Names and attribute names that occur anywhere inside node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached() -> list:
    """Module-level defs and classes of src/centpipe that no other top-level
    src statement refers to and no perfbench file names."""
    statements = [node for path in sorted((ROOT / "src" / "centpipe").glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    named = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        named |= _referenced(tree) | {n.value for n in ast.walk(tree)
                                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    refs = [_referenced(node) for node in statements]
    unreached = []
    for i, node in enumerate(statements):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
                and not any(node.name in r for j, r in enumerate(refs) if j != i)):
            unreached.append(node.name)
    return sorted(unreached)


def test_every_public_src_name_is_reached():
    assert [name for name in _unreached()
            if not name.startswith("_") and name not in ALLOWED] == []


def test_every_private_src_name_is_reached():
    assert [name for name in _unreached() if name.startswith("_") and name not in ALLOWED] == []


def test_the_allowlist_names_only_unreached_code():
    assert set(ALLOWED) <= set(_unreached())
