"""Byte-identity pin: the sha256 of every file each CLI command writes for
the bundled configs, under ``--mode int`` and ``--mode rational``, must
equal ``tests/output_digests.json``.

A change that alters output bytes on purpose records the file again, in a
change of its own:

    PYTHONPATH=src python3 tests/test_output_digests.py > tests/output_digests.json
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from tropical_ca.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "output_digests.json"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
MODES = ("int", "rational")
COMMANDS = {
    "analyze": ["analyze"],
    "simulate": ["simulate"],
    "ca": ["ca", "--schedule", "both"],
    "ca-sync": ["ca", "--schedule", "sync"],
    "ca-async": ["ca", "--schedule", "async"],
    "stg": ["stg"],
    "verify": ["verify"],
    # Cell 2 fires at its first message; exit 1 where the timings expose it.
    "verify-fault": ["verify", "--inject-early-update", "2"],
    "render": ["render"],
}
CASES = [
    f"{config} {mode} {command}"
    for config in CONFIGS
    for mode in MODES
    for command in COMMANDS
]


def tree_digests(root: Path) -> dict:
    """sha256 of each file under root, keyed by its relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_case(case: str, out: Path) -> dict:
    """Exit code and output digests of one 'config mode command' case."""
    config, mode, command = case.split()
    argv = [
        *COMMANDS[command],
        "--config", str(ROOT / "configs" / f"{config}.json"),
        "--mode", mode,
        "--out", str(out),
    ]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "files": tree_digests(out) if out.exists() else {}}


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_golden_digests(tmp_path, case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_case(case, tmp_path / "out")
    shutil.rmtree(tmp_path / "out", ignore_errors=True)  # stg on the 20-cell ring: 215 MB
    assert got == golden[case]


def test_golden_file_has_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


# A seeded 2560-cell 3-ring whose critical graph has eight components.  No
# bundled config has more than one, so this pins the order of the
# eigenbasis (descending smallest cell of each component).
RING_2560 = {
    "mode": "int",
    "network": {
        "N": 2560,
        "topology": {"regular": {"n": 3}},
        "seed": 5,
        "xi_range": [1, 30],
        "tau_range": [1, 10],
    },
    "x0": "unit",
    "k_max": 30,
}
RING_2560_DIGESTS = {
    "critical_graph.dot": "cd26fc124e8a01188e624ca5565ff04e6631f04128692f201a29d58d98db244b",
    "spectral.json": "5e00b5eb0fb07310d9ec9acdd8133990ddf5f1e1a07dfa7ecadd4d80b29527d6",
}


def test_analyze_on_a_2560_cell_ring_pins_the_eigenbasis_order(tmp_path):
    config = tmp_path / "ring2560.json"
    config.write_text(json.dumps(RING_2560), encoding="utf-8")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert len(json.loads((out / "spectral.json").read_text())["eigenbasis"]) == 8
    assert tree_digests(out) == RING_2560_DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {case: run_case(case, Path(tmp) / str(n)) for n, case in enumerate(CASES)}
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
