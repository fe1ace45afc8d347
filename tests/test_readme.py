"""README's ```python blocks run as written, so a renamed or deleted name
cannot leave the documented library use broken."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
