"""Print the size of each src/centpipe module: its lines and its code lines.

Usage (from anywhere):

    python tools/src_size.py [SRC_DIR]

SRC_DIR defaults to this checkout's src/centpipe. One line per module holds
its `wc -l` count and its code lines, counted with `ast`: lines that are not
blank, not a comment and not part of a module, class or function docstring.
The last line holds the totals.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "centpipe"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(source: str) -> tuple[int, int]:
    """(lines as `wc -l` counts them, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = sum(1 for i, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docstrings)
    return source.count("\n"), code


def sizes(src: pathlib.Path = SRC) -> dict[str, tuple[int, int]]:
    """Module file name -> size(its source), for every .py file of src."""
    return {path.name: size(path.read_text()) for path in sorted(src.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=pathlib.Path, default=SRC)
    table = sizes(parser.parse_args(argv).src)
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, (lines, code) in table.items():
        print(f"{name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{sum(s[0] for s in table.values()):>7}"
          f"{sum(s[1] for s in table.values()):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
