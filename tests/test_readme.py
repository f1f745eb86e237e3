"""README's Python examples run as written: each fenced ``python`` block
prints, in a fresh interpreter, exactly the lines its comments state."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def stated_output(block: str) -> list:
    """The line each print call's comment states: the comment on the
    print line, or else the comment line right below it."""
    lines = block.splitlines()
    stated = []
    for line, below in zip(lines, [*lines[1:], ""]):
        if line.startswith("print("):
            comment = line.partition("#")[2] or below.partition("#")[2]
            stated.append(comment.strip())
    return stated


def test_readme_has_python_examples():
    assert BLOCKS
    assert stated_output(BLOCKS[0]) == [
        "19 1 34",
        "bijection: first counter-example at cycle k = 3, cell 2: expected 1, got 0",
    ]


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{n}" for n in range(len(BLOCKS))])
def test_readme_example_prints_what_it_states(tmp_path, block):
    stated = stated_output(block)
    assert stated and all(stated)
    done = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(f"{line}\n" for line in stated)
