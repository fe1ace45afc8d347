"""README's ```python blocks and its CLI Quickstart run as written, and its
```json config example resolves for every subcommand, so a renamed or deleted
name or option cannot leave the documented use broken."""

import argparse
import contextlib
import io
import json
import pathlib
import re
import shlex

import pytest

from centpipe import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
[CONFIG] = re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)
[QUICKSTART] = re.findall(r"^## Quickstart.*?^```\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_readme_config_example_resolves(command, tmp_path):
    """No unknown key and no mistyped value for any subcommand; a section the
    file holds for the running subcommand is applied."""
    path = tmp_path / "config.json"
    path.write_text(CONFIG)
    with contextlib.redirect_stderr(io.StringIO()):
        cfg = cli._resolve(argparse.Namespace(command=command, config=str(path)))
    assert cfg.items() >= json.loads(CONFIG).get(command, {}).items()


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    """Every `centpipe` line of the Quickstart, continuations joined, exits 0
    in a fresh working directory, each reading what the lines before wrote."""
    lines = [shlex.split(line) for line in QUICKSTART.replace("\\\n", " ").splitlines()
             if line.startswith("centpipe ")]
    assert {argv[1] for argv in lines} == set(cli.COMMANDS)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv[1:])
        assert code == 0, (argv, err.getvalue())
