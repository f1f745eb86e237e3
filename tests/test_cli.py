"""End-to-end command line runs against the bundled example configs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tropical_ca
from tropical_ca.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RING10 = str(CONFIGS / "rule150_ring10.json")
UNIFORM = str(CONFIGS / "uniform_ring.json")
SIZE4 = str(CONFIGS / "size4_stg.json")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def tree(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_config(tmp_path, body) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


# -- analyze ----------------------------------------------------------------


def test_analyze_uniform_ring(tmp_path, capsys):
    code, out, _ = run(
        capsys, "analyze", "--config", UNIFORM, "--out", str(tmp_path)
    )
    assert code == 0
    assert "lambda = 7, sigma = 1, 20 critical nodes" in out
    summary = json.loads((tmp_path / "spectral.json").read_text())
    assert summary["lambda"] == 7
    assert summary["sigma"] == 1
    assert summary["critical_nodes"] == list(range(1, 21))
    ring_arcs = {
        (j, i)
        for i in range(1, 21)
        for j in (
            (i - 2) % 20 + 1,
            i,
            i % 20 + 1,
        )
    }
    assert {tuple(a) for a in summary["critical_arcs"]} == ring_arcs
    assert summary["eigenbasis"] == [[0] * 20]
    assert (tmp_path / "critical_graph.dot").read_text().startswith("digraph")


def test_analyze_single_cell_inline(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "network": {
                "N": 1,
                "topology": {"regular": {"n": 1}},
                "xi": [4],
                "tau": [[1, 1, 2]],
            }
        },
    )
    code, out, _ = run(capsys, "analyze", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert "lambda = 6" in out
    summary = json.loads((tmp_path / "spectral.json").read_text())
    assert summary == {
        "lambda": 6,
        "sigma": 1,
        "critical_nodes": [1],
        "critical_arcs": [[1, 1]],
        "eigenbasis": [[0]],
    }


# -- simulate ---------------------------------------------------------------


def test_simulate_seeded_ring(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", "--config", RING10, "--out", str(tmp_path)
    )
    assert code == 0
    assert "k_star = 19, rho = 1, mu = 34, cycletime = 34" in out
    report = json.loads((tmp_path / "regime.json").read_text())
    assert report["k_star"] == 19
    assert report["rho"] == 1
    assert report["mu"] == 34
    assert report["lambda"] == 34
    csv_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0].startswith("k,x_1")
    assert len(csv_lines) == 1 + 31  # header plus k = 0..30
    assert (tmp_path / "contour_plot.svg").read_text().startswith("<svg")


def test_simulate_needs_x0_and_k_max(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "network": {
                "N": 4,
                "topology": {"regular": {"n": 3}},
                "seed": 3,
                "xi_range": [1, 9],
                "tau_range": [1, 9],
            }
        },
    )
    code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err and "x0" in err


# -- ca ----------------------------------------------------------------------


def test_ca_both_schedules(tmp_path, capsys):
    code, out, _ = run(capsys, "ca", "--config", RING10, "--out", str(tmp_path))
    assert code == 0
    assert "sync orbit: entry 0, period 6" in out
    assert "bijection sync/async: PASS" in out
    orbit = json.loads((tmp_path / "sync_orbit.json").read_text())
    assert orbit["entry_time"] == 0
    assert orbit["period"] == 6
    assert len(orbit["periodic_states"]) == 6
    assert orbit["periodic_states"][0] == "0000100000"
    expected = {
        "sync_orbit.json",
        "spacetime_sync.svg",
        "spacetime_sync.pgm",
        "async_contours.svg",
        "spacetime_async_contours.svg",
        "spacetime_async.svg",
        "spacetime_async.pgm",
    }
    assert {p.name for p in tmp_path.iterdir()} == expected


def test_ca_single_schedule_writes_only_its_files(tmp_path, capsys):
    sync_dir = tmp_path / "s"
    async_dir = tmp_path / "a"
    code, _, _ = run(
        capsys, "ca", "--config", RING10, "--out", str(sync_dir),
        "--schedule", "sync",
    )
    assert code == 0
    assert {p.name for p in sync_dir.iterdir()} == {
        "sync_orbit.json", "spacetime_sync.svg", "spacetime_sync.pgm",
    }
    code, _, _ = run(
        capsys, "ca", "--config", RING10, "--out", str(async_dir),
        "--schedule", "async",
    )
    assert code == 0
    assert {p.name for p in async_dir.iterdir()} == {
        "async_contours.svg",
        "spacetime_async_contours.svg",
        "spacetime_async.svg",
        "spacetime_async.pgm",
    }


# -- stg ----------------------------------------------------------------------


def test_stg_size4_census(tmp_path, capsys):
    code, out, _ = run(capsys, "stg", "--config", SIZE4, "--out", str(tmp_path))
    assert code == 0
    assert "2 fixed points, 2 longer cycles, 8 transient states" in out
    census = json.loads((tmp_path / "attractor_census.json").read_text())
    assert census == {
        "fixed_points": ["0000", "1001"],
        "cycles": [
            {"period": 3, "states": ["0010", "1100", "0111"]},
            {"period": 3, "states": ["0101", "1110", "1011"]},
        ],
    }
    assert "->" in (tmp_path / "stg.dot").read_text()


# -- verify -------------------------------------------------------------------


def test_verify_passes_on_healthy_run(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--config", RING10, "--out", str(tmp_path))
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report == {
        "all_passed": True,
        "checks": {
            "bijection": True,
            "eigen_equation": True,
            "event_times_match_matrix": True,
            "regime": True,
        },
    }


def test_verify_detects_injected_fault(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--config", RING10, "--out", str(tmp_path),
        "--inject-early-update", "1",
    )
    assert code == 1
    assert "bijection: FAIL" in out
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["all_passed"] is False
    assert report["checks"]["bijection"] is False
    # the fault corrupts timestamps too, not only the logical states
    assert report["checks"]["event_times_match_matrix"] is False


# -- failure modes ------------------------------------------------------------


def test_reducible_network_is_a_clean_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "network": {
                "N": 2,
                "topology": {"arcs": [[1, 1], [1, 2]]},
                "xi": [1, 1],
                "tau": [[1, 1, 1], [1, 2, 1]],
            }
        },
    )
    code, _, err = run(capsys, "analyze", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "strongly connected" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "analyze", "--config", str(tmp_path / "nope.json"),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "does not exist" in err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "not valid JSON" in err


def test_seed_override_rejected_for_explicit_parameters(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "network": {
                "N": 1,
                "topology": {"regular": {"n": 1}},
                "xi": [4],
                "tau": [[1, 1, 2]],
            }
        },
    )
    code, _, err = run(
        capsys, "analyze", "--config", cfg, "--out", str(tmp_path), "--seed", "5"
    )
    assert code == 2
    assert "seed" in err


def test_float_mode_refuses_regime_detection(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "mode": "float",
            "network": {
                "N": 1,
                "topology": {"regular": {"n": 1}},
                "xi": [4.5],
                "tau": [[1, 1, 2.0]],
            },
            "x0": [0.0],
            "k_max": 5,
        },
    )
    code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "float" in err or "exact" in err


def test_float_mode_analyze_matches_rational(tmp_path, capsys):
    # lambda = 11/3 is not dyadic: the float normalized circuit rounds to an
    # ulp above zero, which must not count as a positive circuit.
    network = {
        "N": 3,
        "topology": {"arcs": [[1, 2], [2, 3], [3, 1]]},
        "xi": [1, 1, 1],
        "tau": [[1, 2, 3], [2, 3, 0], [3, 1, 5]],
    }
    cfg = write_config(tmp_path, {"mode": "float", "network": network})
    docs = {}
    for mode in ("float", "rational"):
        out = tmp_path / mode
        code, stdout, _ = run(
            capsys, "analyze", "--config", cfg, "--mode", mode, "--out", str(out)
        )
        assert code == 0
        assert "sigma = 3, 3 critical nodes" in stdout
        docs[mode] = json.loads((out / "spectral.json").read_text())
    fl, ex = docs["float"], docs["rational"]
    assert ex["lambda"] == {"num": 11, "den": 3}
    assert abs(fl["lambda"] - 11 / 3) <= 1e-9
    for key in ("sigma", "critical_nodes", "critical_arcs"):
        assert fl[key] == ex[key]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_eps_in_x0_is_a_config_error(tmp_path, command):
    cfg = write_config(
        tmp_path,
        {
            "network": {
                "N": 3,
                "topology": {"regular": {"n": 3}},
                "seed": 1,
                "xi_range": [1, 5],
                "tau_range": [1, 5],
            },
            "rule": {"eca": 150},
            "s0": "010",
            "x0": ["eps", 0, 0],
            "k_max": 5,
        },
    )
    src = Path(tropical_ca.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tropical_ca.cli", command,
         "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "x0[1]" in proc.stderr


def test_bad_s0_length(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "network": {
                "N": 4,
                "topology": {"regular": {"n": 3}},
                "seed": 1,
                "xi_range": [1, 5],
                "tau_range": [1, 5],
            },
            "rule": {"eca": 150},
            "s0": "01",
            "x0": "unit",
            "k_max": 3,
        },
    )
    code, _, err = run(capsys, "ca", "--config", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "s0" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# -- determinism ----------------------------------------------------------------


def test_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        for cmd in ("analyze", "simulate", "ca", "verify"):
            code, _, _ = run(capsys, cmd, "--config", RING10, "--out", str(out_dir))
            assert code == 0
    ta, tb = tree(a), tree(b)
    assert ta.keys() == tb.keys() and len(ta) == 13
    assert ta == tb


def test_out_directory_from_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "analyze", "--config", RING10)
    assert code == 0
    assert (tmp_path / "out" / "rule150_ring10" / "spectral.json").is_file()
