"""README's Python examples run as written: each fenced ``python`` block
prints, in a fresh interpreter, exactly the lines its comments state.

The interpreter gets this test's own environment, so a block imports the
package that the test run would: src/ under the tier-1 command, which
sets PYTHONPATH, and the installed package where nothing sets it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)
# A block runs in a scratch directory, so a relative search path is made
# absolute first.
ENV = dict(os.environ)
if "PYTHONPATH" in ENV:
    ENV["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, ENV["PYTHONPATH"].split(os.pathsep)))


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
    assert stated_output(BLOCKS[1]) == [
        "(0, 927)",
        "0011101000",
        "1 6 7",
        "['0001010000', '0010001000', '0101010100', '1000000010', '0100000100', '1010001010']",
    ]


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{n}" for n in range(len(BLOCKS))])
def test_readme_example_prints_what_it_states(tmp_path, block):
    stated = stated_output(block)
    assert stated and all(stated)
    done = subprocess.run(
        [sys.executable, "-c", block],
        capture_output=True, text=True, cwd=tmp_path, env=ENV,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(f"{line}\n" for line in stated)
