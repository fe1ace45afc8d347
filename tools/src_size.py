"""Print the size of each src/centpipe module: its lines and its code lines.

Usage (from anywhere):

    python tools/src_size.py [SRC_DIR] [--against PARENT_SRC]

SRC_DIR defaults to this checkout's src/centpipe. One line per module holds
its `wc -l` count and its code lines, counted with `ast`: lines that are not
blank, not a comment and not part of a module, class or function docstring.
The last line holds the totals. With --against, each count reads as
PARENT_SRC's → SRC_DIR's, over the modules of either; a module missing on
one side counts 0 there.
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


def compare(before: dict, after: dict) -> dict[str, tuple[tuple[int, int], tuple[int, int]]]:
    """Module name -> (its size in `before`, in `after`) over the modules of
    either sizes() table, (0, 0) on a side that lacks it, then "total" ->
    each side's summed sizes."""
    rows = {name: (before.get(name, (0, 0)), after.get(name, (0, 0)))
            for name in sorted(before.keys() | after.keys())}
    rows["total"] = tuple((sum(s[0] for s in t.values()), sum(s[1] for s in t.values()))
                          for t in (before, after))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=pathlib.Path, default=SRC)
    parser.add_argument("--against", type=pathlib.Path, metavar="PARENT_SRC",
                        help="print each count as PARENT_SRC's → SRC's")
    args = parser.parse_args(argv)
    for src in (args.src, args.against):
        if src is not None and not src.is_dir():
            parser.error(f"{src} is not a directory")
    after = sizes(args.src)
    before = after if args.against is None else sizes(args.against)
    width = 7 if args.against is None else 14
    print(f"{'module':<16}{'lines':>{width}}{'code':>{width}}")
    for name, (b, a) in compare(before, after).items():
        cells = a if args.against is None else (f"{b[0]} → {a[0]}", f"{b[1]} → {a[1]}")
        print(f"{name:<16}{cells[0]:>{width}}{cells[1]:>{width}}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
