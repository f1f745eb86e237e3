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


# A 6-cell digraph with quarter-unit timings and a half-unit start, whose
# eigenvalue 31/12 has a denominator in neither P nor x(0).  Every bundled
# rational case has int timings, so this is the one pin of a Fraction frame:
# sigma = rho = 3 and k* = 3, and every check passes.
FRACTION_LAMBDA = {
    "mode": "rational",
    "network": {
        "N": 6,
        "topology": {"arcs": [[1, 2], [2, 3], [3, 1], [3, 4], [4, 5], [5, 6], [6, 1]]},
        "xi": [0.25, 0.25, 0.25, 0.25, 0.25, 0.25],
        "tau": [[1, 2, 2], [2, 3, 2], [3, 1, 3], [3, 4, 1], [4, 5, 4], [5, 6, 2], [6, 1, 1]],
    },
    "rule": "parity",
    "s0": "100100",
    "x0": [0, 0.5, 0, 0, 1.5, 0],
    "k_max": 12,
}
FRACTION_LAMBDA_DIGESTS = {
    "analyze": {
        "critical_graph.dot": "6e3e9365c8e2995b3fc92f8a6a45ce0c0e8a3098a56c78265d191fbc0e51529c",
        "spectral.json": "7be98628e1798360415791b06c5553233af379f9a56f4681c20e37e0ab332d31",
    },
    "simulate": {
        "contour_plot.svg": "9bdf71967ee1d815ae9a182a8a3a3572181578642fda0d63004d54ae8027ca6e",
        "regime.json": "eab4a6372cc1db3c4edc9477303050c9516def8d95b4db3a4c35e24354517118",
        "trajectory.csv": "2fa71a3193c8271cbfc543597e3148bcc9403a37a106a3f831ab870aa6905f03",
    },
    "verify": {
        "verification.json": "f381ee06b2e788e7fafee6bb5d63110e0b1e670ebdd817b11a74b2b33731e7c5",
    },
}


@pytest.mark.parametrize("command", sorted(FRACTION_LAMBDA_DIGESTS))
def test_a_non_integer_eigenvalue_pins_the_fraction_frame(tmp_path, command):
    config = tmp_path / "fraction.json"
    config.write_text(json.dumps(FRACTION_LAMBDA), encoding="utf-8")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(config), "--out", str(out)])
    assert code == 0
    assert tree_digests(out) == FRACTION_LAMBDA_DIGESTS[command]
    if command == "simulate":
        regime = json.loads((out / "regime.json").read_text())
        assert regime["lambda"] == {"num": 31, "den": 12}
        assert (regime["k_star"], regime["rho"]) == (3, 3)


# ca --schedule both formats the hold heights up to the run's recurrence,
# reads the orbit's states once and stops the bijection check at the
# orbit's entry + period.  These are the files of the full passes (the
# same digests are pinned in CI): the 10-cell ring at k_max 2000, and a
# 6-cell ring with self-loops and quarter-unit timings, whose update
# times are Fractions and whose rho is 2.
QUARTER_RHO2 = {
    "mode": "rational",
    "network": {
        "N": 6,
        "topology": {"arcs": [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [6, 6], [1, 2],
                              [2, 1], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1]]},
        "xi": [0.25, 0.5, 0.25, 0.75, 0.25, 0.5],
        "tau": [[1, 1, 1], [2, 2, 1.25], [3, 3, 0.5], [4, 4, 1], [5, 5, 0.75], [6, 6, 1],
                [1, 2, 2.75], [2, 1, 3.25], [2, 3, 1], [3, 4, 0.5], [4, 5, 1.25],
                [5, 6, 0.25], [6, 1, 1.5]],
    },
    "rule": "parity",
    "s0": "100100",
    "x0": [0, 0.5, 0, 0.25, 1.5, 0],
    "k_max": 40,
}
CA_BOTH_DIGESTS = {
    "rule150_ring10 k_max 2000": {
        "async_contours.svg": "c2ccd7c343705ffcf180c6254655ac4d385150fbde0f92111a38059d7c1a411c",
        "spacetime_async.pgm": "d8753eece01e7447e63ff55fb90402dc71a88d566beeca29ef7fecd09979a18f",
        "spacetime_async.svg": "8df7ea73f7ac4255546c5b5ac823a151e6e5f0d57541f0d22fd76f54cbe38c4e",
        "spacetime_async_contours.svg":
            "60b951055c4e94e6edcbf19ca92e48cfaeeda4b76c223c888e66a7f7d9785fc2",
        "spacetime_sync.pgm": "64f9a4c4ba52d55758e7c4d9c706c6ffc823342f5119f1fefcee751170946ca8",
        "spacetime_sync.svg": "b469335c323b1e4f875b4ee6af09b1c6ff2dc329b5a968b5c58ca21d2e1932d7",
        "sync_orbit.json": "5ad1ed3a94fa89c42c95dbb782caac745e652f14611b27e58a45592d407afa48",
    },
    "quarter-unit rho 2": {
        "async_contours.svg": "ed9e217e98559758782495d599e95ff70debb74299956d947e3783ee29b07f94",
        "spacetime_async.pgm": "9d4cf765fc89cec712681b5de13d529756f1ceb3579ffdf7239abbbf0f57420c",
        "spacetime_async.svg": "b989fce1b67dd00070b35ed9ba369d803cd5498ae4e9acb3184e6e8dc8ebaeba",
        "spacetime_async_contours.svg":
            "ecda4c6acfefc4b2c2155facc05980355c5c48263ddca6a462ce7dc7f8920119",
        "spacetime_sync.pgm": "4ee63f5bfaeeb2d60b48e73bce626d53344ba74b7516cd18d0c47ee3bd0e8eb9",
        "spacetime_sync.svg": "4be4e616c0ac0471a76219f062f27d84c6fc61c43008ee9964f324a08444d1c0",
        "sync_orbit.json": "f9fc77547803eb208ea3fd4a59fdd0ac96c2a70ebf5700fe5022c884445e94af",
    },
}


@pytest.mark.parametrize("case", sorted(CA_BOTH_DIGESTS))
def test_ca_both_on_a_recurring_run_pins_every_file(tmp_path, case):
    if case == "quarter-unit rho 2":
        body = QUARTER_RHO2
    else:
        body = json.loads((ROOT / "configs" / "rule150_ring10.json").read_text())
        body = {**body, "k_max": 2000}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["ca", "--schedule", "both", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert tree_digests(out) == CA_BOTH_DIGESTS[case]
    if case == "quarter-unit rho 2":
        with contextlib.redirect_stdout(io.StringIO()):
            main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")])
        regime = json.loads((tmp_path / "sim" / "regime.json").read_text())
        assert regime["rho"] == 2 and regime["lambda"] == {"num": 27, "den": 8}


# The bundled configs' event DAGs are all on regular rings; this 6-cell
# digraph lists each cell's messages in ascending sender order (the same
# digest is pinned in CI).
QUARTER_RHO2_EVENT_DAG = "558397930caf667f9fd52fbbbc1d78e0eb9894d88d080cd5af05f263ebcfe060"


def test_render_pins_the_event_dag_of_an_explicit_topology(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(QUARTER_RHO2), encoding="utf-8")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["render", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert tree_digests(out)["event_dag.dot"] == QUARTER_RHO2_EVENT_DAG


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {case: run_case(case, Path(tmp) / str(n)) for n, case in enumerate(CASES)}
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
