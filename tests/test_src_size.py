"""tools/src_size.py against a direct count. The script is imported from its
file, unchanged."""

import importlib.util
import io
import pathlib
import subprocess
import sys
import tokenize

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_src_size():
    path = ROOT / "tools" / "src_size.py"
    spec = importlib.util.spec_from_file_location("src_size", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_size = _load_src_size()


def _code_lines(source: str) -> int:
    """Lines holding a token other than a comment or a docstring, found by
    the tokenizer: a string statement first in its block is a docstring."""
    lines, after_header = set(), True
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for i, tok in enumerate(tokens):
        if tok.type in skip:
            continue
        docstring = (after_header and tok.type == tokenize.STRING
                     and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        after_header = tok.type == tokenize.OP and tok.string == ":" and tokens[i + 1].type in (
            tokenize.NEWLINE, tokenize.COMMENT)
    return len(lines)


def test_totals_match_a_direct_count():
    """Every module's `wc -l` count and its code lines, and the printed
    totals, equal a newline count and a tokenizer count of the files."""
    paths = sorted((ROOT / "src" / "centpipe").glob("*.py"))
    want = {p.name: (p.read_bytes().count(b"\n"), _code_lines(p.read_text())) for p in paths}
    assert src_size.sizes() == want
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "src_size.py")],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[-1].split() == ["total", str(sum(w[0] for w in want.values())),
                               str(sum(w[1] for w in want.values()))]
    assert len(out) == len(paths) + 2


# two hand-written module sets: b.py only before, c.py only after
_BEFORE = {"a.py": '"""Doc."""\n\nx = 1  # note\n',
           "b.py": 'def f():\n    """Doc,\n    two lines."""\n    return 1\n'}
_AFTER = {"a.py": "x = 1\ny = 2\n# note\n", "c.py": "import os\n"}


def _write_modules(root, modules):
    root.mkdir()
    for name, source in modules.items():
        (root / name).write_text(source)
    return root


def test_against_counts_each_side_and_a_missing_module_as_0(tmp_path):
    before = src_size.sizes(_write_modules(tmp_path / "before", _BEFORE))
    after = src_size.sizes(_write_modules(tmp_path / "after", _AFTER))
    assert src_size.compare(before, after) == {
        "a.py": ((3, 1), (3, 2)), "b.py": ((4, 2), (0, 0)), "c.py": ((0, 0), (1, 1)),
        "total": ((7, 3), (4, 3))}


def test_against_prints_before_and_after(tmp_path, capsys):
    before = _write_modules(tmp_path / "before", _BEFORE)
    after = _write_modules(tmp_path / "after", _AFTER)
    assert src_size.main([str(after), "--against", str(before)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["module", "lines", "code"],
        ["a.py", "3", "→", "3", "1", "→", "2"],
        ["b.py", "4", "→", "0", "2", "→", "0"],
        ["c.py", "0", "→", "1", "0", "→", "1"],
        ["total", "7", "→", "4", "3", "→", "3"]]


def test_a_path_that_is_no_directory_exits_2(tmp_path, capsys):
    after = _write_modules(tmp_path / "after", _AFTER)
    with pytest.raises(SystemExit) as exit_:
        src_size.main([str(after), "--against", str(tmp_path / "missing")])
    assert exit_.value.code == 2 and "missing is not a directory" in capsys.readouterr().err
