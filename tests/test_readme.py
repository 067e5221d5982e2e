"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def test_readme_example_prints_its_comments():
    block = python_block()
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    assert expected and all(expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
