"""The byte contract against history: tools/output_digests.py, run on this
checkout's src, prints line for line the digests in tests/output_digests.txt.
A change that moves output bytes on purpose regenerates that file in the
same commit (README "Testing"), so its diff names every moved file. The tool
is imported from its file, unchanged, for its environment line."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digests.py"
DIGESTS = ROOT / "tests" / "output_digests.txt"


def _environment() -> str:
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.environment()


def _by_path(lines) -> dict:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_outputs_match_the_checked_in_digests(tmp_path):
    """Every file the CLI writes for seeds 1-5. The bytes depend on the
    Python, numpy and OpenBLAS build too, so under another one the test
    fails first, naming both, rather than reporting moved files."""
    header, *expected = DIGESTS.read_text().splitlines()
    here = _environment()
    assert header == f"# {here}", (f"{DIGESTS.name} holds the digests of\n  {header[2:]}\n"
                                   f"but this environment is\n  {here}")
    run = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "run")],
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    old, new = _by_path(expected), _by_path(got)
    changed = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
    assert got == expected, f"{len(changed)} files differ from {DIGESTS.name}: {changed}"
