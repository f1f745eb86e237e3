"""End-to-end command line runs against the bundled example configs."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropical_ca
from tropical_ca import ca, cli, network, render, spectral
from tropical_ca.cli import main
from tropical_ca.errors import CapExceededError, ConfigError, TropicalError
from tropical_ca.semiring import MaxPlusMatrix, unit_vector

from test_ca import event_instances

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


def run_module(*argv):
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = Path(tropical_ca.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "tropical_ca.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def count_calls(monkeypatch, module, name) -> list:
    """Record the calls of module.name on every tropical_ca module that
    binds that function (``ca`` imports ``build_p`` by name)."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("tropical_ca") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


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


def test_one_parser_serves_every_command(tmp_path, capsys):
    # The parser is built once per process; each main call still reads
    # its own arguments, defaults included.
    assert cli.build_parser() is cli.build_parser()
    runs = (
        ("analyze", {"spectral.json", "critical_graph.dot"}),
        ("ca", "--schedule", "sync", {
            "sync_orbit.json", "spacetime_sync.svg", "spacetime_sync.pgm",
        }),
        ("ca", {
            "sync_orbit.json", "spacetime_sync.svg", "spacetime_sync.pgm",
            "async_contours.svg", "spacetime_async_contours.svg",
            "spacetime_async.svg", "spacetime_async.pgm",
        }),
    )
    for n, (*argv, files) in enumerate(runs):
        out = tmp_path / str(n)
        code, _, _ = run(capsys, *argv, "--config", RING10, "--out", str(out))
        assert code == 0
        assert {p.name for p in out.iterdir()} == files


def test_orbit_step_cap_is_a_clean_error(tmp_path, capsys, monkeypatch):
    # The ring10 orbit repeats after 6 steps; a cap of 4 cuts it off.
    assert cli.ORBIT_STEP_CAP == 1 << 20
    monkeypatch.setattr(cli, "ORBIT_STEP_CAP", 4)
    code, _, err = run(
        capsys, "ca", "--config", RING10, "--out", str(tmp_path / "out"),
        "--schedule", "sync",
    )
    assert code == 2
    assert err.startswith("error: ") and "k_max = 4" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "sync_orbit.json").exists()


def test_raster_past_the_byte_cap_opens_no_file(tmp_path, capsys, monkeypatch):
    # The bound is the raster's height times its widest row.  A cap one
    # byte below it refuses every command that writes the raster, with
    # one error line and exit 2, before any file is opened; at the bound
    # the raster is written, and its rows fit in it.
    assert cli.RASTER_BYTE_CAP == 1 << 30
    args = cli.build_parser().parse_args(["ca", "--config", RING10])
    height, row = cli.Stages(cli.load_experiment(args)).async_plots.raster_size()
    bound = height * row
    monkeypatch.setattr(cli, "RASTER_BYTE_CAP", bound - 1)
    for argv in (["ca", "--schedule", "async"], ["ca", "--schedule", "both"], ["render"]):
        out = tmp_path / "-".join(argv)
        code, stdout, err = run(capsys, *argv, "--config", RING10, "--out", str(out))
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{out / 'spacetime_async.pgm'} would take up to {bound} bytes" in err
        assert not out.exists() and stdout == "", argv
    monkeypatch.setattr(cli, "RASTER_BYTE_CAP", bound)
    out = tmp_path / "at-the-cap"
    assert run(capsys, "ca", "--schedule", "async", "--config", RING10, "--out", str(out))[0] == 0
    text = (out / "spacetime_async.pgm").read_bytes()
    header = text.split(b"\n255\n", 1)[0]
    assert header.endswith(f"\n{row // 4} {height}".encode())  # 3 digits and a space a pixel
    assert len(text) - len(header) - 5 <= bound


# The commands that hold a whole run, and RING10's (k_max + 1)·N.
HOLDING = (["simulate"], ["ca", "--schedule", "sync"], ["ca", "--schedule", "async"],
           ["ca", "--schedule", "both"], ["render"])
RING10_HELD = (30 + 1) * 10


@pytest.mark.parametrize("argv", HOLDING, ids=lambda argv: "-".join(argv))
def test_held_states_past_the_cap_open_no_file(tmp_path, capsys, monkeypatch, argv):
    # A cap one below the run's cell-states refuses it, with one error
    # line and exit 2, before any file is opened; at the bound the
    # command writes.
    assert cli.HELD_STATE_CAP == 1 << 22
    monkeypatch.setattr(cli, "HELD_STATE_CAP", RING10_HELD - 1)
    out = tmp_path / "refused"
    code, stdout, err = run(capsys, *argv, "--config", RING10, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"would hold {RING10_HELD} cell-states, over the cap of {RING10_HELD - 1}" in err
    assert not out.exists()
    monkeypatch.setattr(cli, "HELD_STATE_CAP", RING10_HELD)
    out = tmp_path / "at-the-cap"
    assert run(capsys, *argv, "--config", RING10, "--out", str(out))[0] == 0
    assert any(out.iterdir())


def test_verify_holds_no_run(tmp_path, capsys, monkeypatch):
    # verify holds one state of each run, so the cap does not bound it.
    monkeypatch.setattr(cli, "HELD_STATE_CAP", RING10_HELD - 1)
    assert run(capsys, "verify", "--config", RING10, "--out", str(tmp_path))[0] == 0


def test_a_refusal_at_the_last_file_opens_no_file(tmp_path, capsys, monkeypatch):
    # render forms the content of all its files before it opens one, so a
    # graph for stg.dot, its last file, that cannot be built leaves no
    # --out directory, not the nine files before it.
    def refuse(rule, spec):
        raise CapExceededError("no state transition graph")

    monkeypatch.setattr(ca, "build_stg", refuse)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "render", "--config", RING10, "--out", str(out))
    assert (code, stdout, err) == (2, "", "error: no state transition graph\n")
    assert not out.exists()


def test_a_failed_write_removes_the_files_written_before_it(tmp_path, capsys, monkeypatch):
    # --out holds a directory named stg.dot, render's last file: it cannot
    # be opened once the nine files before it are written, and those go,
    # so only the directory is left.  An interrupt mid-stream is the same,
    # and the levels of --out that the call made go too.
    out = tmp_path / "out"
    (out / "stg.dot").mkdir(parents=True)
    code, stdout, err = run(capsys, "render", "--config", RING10, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"config error: out: cannot write {out / 'stg.dot'}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == ["stg.dot"]
    assert not any((out / "stg.dot").iterdir())

    def interrupted(st):
        assert len(list(out.iterdir())) == 10  # the nine files and stg.dot
        yield "digraph stg {\n"
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.WRITERS, "stg.dot", interrupted)
    for out in (tmp_path / "interrupted", tmp_path / "a" / "b"):
        code, stdout, err = run(capsys, "render", "--config", RING10, "--out", str(out))
        assert (code, stdout, err) == (130, "", "interrupted\n")
        assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("mode", cli.MODES)
@pytest.mark.parametrize("argv", [["ca", "--schedule", "async"], ["render"]],
                         ids=lambda argv: "-".join(argv))
def test_a_config_short_of_two_fields_is_refused_at_its_first_file(tmp_path, capsys, argv, mode):
    # size4_stg has no s0, x0 or timings.  The first file of both commands
    # is a plot laid out from the update times, so the refusal names x0.
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--config", SIZE4, "--mode", mode, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "config error: this command needs the config field 'x0'\n"
    assert not out.exists()


# A 3-cell cycle with no self-loops, whose cell 1 starts 10 time units
# ahead: its update times stall at once.
STALLED = {
    "mode": "int",
    "network": {"N": 3, "topology": {"arcs": [[1, 2], [2, 3], [3, 1]]}, "xi": [1, 1, 1],
                "tau": [[1, 2, 1], [2, 3, 1], [3, 1, 1]]},
    "rule": "parity", "s0": "100", "x0": [10, 0, 0], "k_max": 5,
}


def test_huge_k_max_is_refused_without_a_traceback(tmp_path):
    # k_max 10^11 would hold 3·10^11 cell-states: refused at once.
    cfg = write_config(tmp_path, {**STALLED, "k_max": 10**11})
    done = run_module("simulate", "--config", cfg, "--out", str(tmp_path / "out"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: a run of 100000000001 states of 3 cells")
    assert done.stderr.count("\n") == 1 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", HOLDING[2:], ids=lambda argv: "-".join(argv))
def test_stalled_update_times_open_no_file(tmp_path, capsys, argv):
    # The timed run is refused before any file is opened, the sync
    # plots of ca --schedule both included.
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--config", write_config(tmp_path, STALLED),
                            "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: update times of cell 1 are not strictly increasing")
    assert err.count("\n") == 1 and not out.exists()


def flip_event_state(monkeypatch, target, cell):
    """Make the event run's local rule flip ``cell`` of the next state
    wherever the state before it is ``target``."""
    local_rule = ca._local_rule

    def patched(rule, nbhd):
        local = local_rule(rule, nbhd)

        def step(s):
            new = local(s)
            if s == target:
                new[cell] ^= 1
            return new

        return step

    monkeypatch.setattr(ca, "_local_rule", patched)


def full_bijection_pass(exp):
    return ca.first_mismatch(
        "bijection",
        ca.iter_sync_states(exp.rule, exp.spec, exp.s0, exp.k_max),
        ca.event_states(exp.rule, exp.spec, exp.s0, exp.k_max),
    )


def orbit_experiment(rule, spec, s0, k_max):
    return cli.Experiment("int", spec, None, rule, s0, None, k_max, Path("out"), None)


def test_bounded_bijection_pass_finds_a_late_fault(monkeypatch):
    # ca stops the check at cycle entry + period of the orbit.  A local
    # rule that goes wrong only on the orbit's last new state first shows
    # at that very cycle: the bounded and the full pass both report it.
    spec, rule = network.regular_ring(10, 3), ca.CARule.eca(30)
    s0 = ca.state_from_string("0110011100")
    exp = orbit_experiment(rule, spec, s0, 200)
    orbit = cli.Stages(exp).orbit
    last = orbit.entry_time + orbit.period
    assert (orbit.entry_time, orbit.period) == (19, 15)
    flip_event_state(monkeypatch, orbit.states[-1], 4)
    bounded = cli.Stages(exp).bijection_mismatch
    assert bounded == full_bijection_pass(exp)
    assert (bounded.k, bounded.cell) == (last, 4)
    # The library's fault-free pass stops only at s(47) = s(32), past it.
    params = network.random_parameters(spec, 1, (1, 3), (0, 3))
    assert ca.bijection_mismatch(rule, spec, params, s0, unit_vector(10), 200) == bounded
    # Past k_max the fault is not reached by either pass.
    exp = exp._replace(k_max=last - 1)
    assert cli.Stages(exp).bijection_mismatch is None is full_bijection_pass(exp)


@settings(max_examples=60, deadline=None)
@given(
    rule=st.one_of(st.integers(0, 255).map(ca.CARule.eca), st.just(ca.CARule.parity())),
    size=st.integers(3, 9),
    bits=st.integers(0, (1 << 9) - 1),
    k_max=st.integers(0, 120),
    flip=st.one_of(st.none(), st.tuples(st.integers(0, 1 << 9), st.integers(0, 8))),
)
def test_bounded_and_full_bijection_passes_agree(rule, size, bits, k_max, flip):
    # With the event rule faithful or flipping one cell on one orbit
    # state, ca's pass that stops at entry + period, and the library's
    # fault-free pass that stops where the sync run repeats a checkpoint
    # state, report the same first mismatch as the pass over every cycle.
    spec = network.regular_ring(size, 3)
    params = network.random_parameters(spec, bits, (1, 3), (0, 3))
    s0 = tuple((bits >> i) & 1 for i in range(size))
    exp = orbit_experiment(rule, spec, s0, k_max)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if flip is not None:
            states = cli.Stages(exp).orbit.states
            flip_event_state(monkeypatch, states[flip[0] % len(states)], flip[1] % size)
        full = full_bijection_pass(exp)
        assert cli.Stages(exp).bijection_mismatch == full
        assert ca.bijection_mismatch(rule, spec, params, s0, unit_vector(size), k_max) == full


@settings(max_examples=150, deadline=None)
@given(instance=event_instances(), k_max=st.integers(0, 200))
def test_time_scan_to_the_regime_agrees_with_the_full_pass(instance, k_max):
    # verify stops its event-time scan at cycle min(k_max, k* + rho).  On
    # strongly connected digraphs with int or Fraction timings, and each
    # fault cell or none, it reports the same first mismatch as the scan
    # over every cycle.
    rule, _, spec, _, params, s0, x0, _, fault = instance
    exp = cli.Experiment("rational", spec, params, rule, s0, tuple(x0), k_max, Path("out"), None)
    bounded = cli.Stages(exp, fault).mismatches["event_times_match_matrix"]
    assert bounded == ca.first_mismatch(
        "event_times_match_matrix",
        cli.traj_mod.iter_states(network.build_p(spec, params), x0, k_max),
        ca.event_times(spec, params, x0, k_max, fault),
    )


def cap_items(monkeypatch, name, cap):
    """Make each iterator that ca.<name> returns fail at its item cap + 1."""
    original = getattr(ca, name)

    def capped(*args, **kwargs):
        for k, item in enumerate(original(*args, **kwargs)):
            assert k < cap, f"ca.{name} stepped past cycle {cap - 1}"
            yield item

    monkeypatch.setattr(ca, name, capped)


def test_verify_steps_each_run_to_its_recurrence_only(tmp_path, capsys, monkeypatch):
    # A work gate that needs no clock: at k_max 10^12 on the 10-cell ring
    # (sync orbit entry 0 and period 6, k* = 19 and rho = 1), verify
    # decides both per-cycle checks within 64 cycles of each event run.
    cfg = json.loads(Path(RING10).read_text())
    cfg["k_max"] = 10**12
    for name in ("event_states", "event_times"):
        cap_items(monkeypatch, name, 64)
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "out"))
    assert code == 0 and out.count("PASS") == 4


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


def test_verify_analyzes_once(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, spectral, "analyze")
    code, _, _ = run(capsys, "verify", "--config", RING10, "--out", str(tmp_path))
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["simulate"], ["verify"], ["ca", "--schedule", "both"], ["render"]],
    ids=lambda argv: argv[0],
)
def test_no_command_builds_the_dense_grid(tmp_path, capsys, monkeypatch, argv):
    """P is built and read through its arcs only: no command builds a
    matrix from an n x n grid."""

    def refuse(self, entries):
        raise AssertionError("a matrix was built from a dense n x n grid")

    monkeypatch.setattr(MaxPlusMatrix, "__init__", refuse)
    code, _, _ = run(capsys, argv[0], "--config", RING10, "--out", str(tmp_path),
                     *argv[1:])
    assert code == 0


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
    # Each failed check prints its first counter-example, which names the
    # injected cell wherever the fault is caught: a cell that fires early
    # differs first in its own time and state, its neighbours only later.
    lines = [line for line in out.splitlines() if "counter-example" in line]
    assert [line.split(":")[0] for line in lines] == [
        "bijection", "event_times_match_matrix"
    ]
    assert all(", cell 1: expected " in line for line in lines), lines
    for cell in range(2, 11):
        code, out, _ = run(
            capsys, "verify", "--config", RING10, "--out", str(tmp_path / "more"),
            "--inject-early-update", str(cell),
        )
        lines = [line for line in out.splitlines() if "counter-example" in line]
        assert (code == 1) == bool(lines), cell
        assert all(f", cell {cell}: expected " in line for line in lines), lines


def test_verify_names_the_contour_and_cell_of_a_corrupted_summary(tmp_path, capsys, monkeypatch):
    # A summary whose first eigenvector is off by one in cell 3, and a
    # regime whose first contour is off by one in cell 5: each check
    # fails with one line naming the vector and the first cell where
    # P ⊗ c ≠ lambda ⊗ c′, and verification.json keeps its form.
    analyze, detect = spectral.analyze, cli.traj_mod.detect_regime

    def bumped(vectors, cell):
        first = list(vectors[0])
        first[cell] += 1
        return (tuple(first), *vectors[1:])

    monkeypatch.setattr(spectral, "analyze", lambda p: analyze(p)._replace(
        eigenbasis=bumped(analyze(p).eigenbasis, 2)))
    monkeypatch.setattr(cli.traj_mod, "detect_regime", lambda *args: (
        lambda r: r._replace(contours=bumped(r.contours, 4)))(detect(*args)))
    code, out, _ = run(capsys, "verify", "--config", RING10, "--out", str(tmp_path))
    assert code == 1
    stages = cli.Stages(cli.load_experiment(cli.build_parser().parse_args(
        ["verify", "--config", RING10])))
    p, lam = stages.p, stages.summary.eigenvalue
    want = []
    for check, at, vectors in (
        ("eigen_equation", "eigenvector j", [(v, v) for v in stages.summary.eigenbasis]),
        ("regime", "contour m", list(zip(stages.regime.contours,
                                         stages.regime.contours[1:] + stages.regime.contours[:1]))),
    ):
        j, i, got, expected = next(
            (j, i, a, b + lam)
            for j, (c, c_next) in enumerate(vectors)
            for i, (a, b) in enumerate(zip(p.apply(c), c_next))
            if a != b + lam
        )
        want.append(f"{check}: first counter-example at {at} = {j}, cell {i + 1}: "
                    f"expected {expected}, got {got}")
    assert [line for line in out.splitlines() if "counter-example" in line] == want
    assert "eigen_equation: FAIL" in out and "regime: FAIL" in out
    assert (tmp_path / "verification.json").read_text() == json.dumps({
        "all_passed": False,
        "checks": {"bijection": True, "eigen_equation": False,
                   "event_times_match_matrix": True, "regime": False},
    }, indent=2, sort_keys=True) + "\n"


def test_contour_mismatch_is_none_on_a_sound_summary():
    stages = cli.Stages(cli.load_experiment(cli.build_parser().parse_args(
        ["verify", "--config", RING10])))
    assert stages.contour_mismatch("regime") is None
    assert stages.contour_mismatch("eigen_equation") is None


@pytest.mark.parametrize("cell", ["0", "11"])
def test_fault_cell_out_of_range_is_named_one_based(tmp_path, capsys, cell):
    # RING10 has cells 1..10: 0 and 11 are refused under their own names.
    code, _, err = run(
        capsys, "verify", "--config", RING10, "--out", str(tmp_path),
        "--inject-early-update", cell,
    )
    assert code == 2
    assert err == (
        f"error: no cell {cell} to inject the fault into; the cells are 1..10\n"
    )


def test_early_update_fault_is_caught_only_on_unequal_timings(tmp_path, capsys):
    # uniform_ring has one tau and one xi for every arc and cell and starts
    # from the unit vector, so every message of a cycle arrives at the same
    # instant: a cell that fires at its first message has heard them all,
    # and the fault changes nothing.  The seeded timings of rule150_ring10
    # spread the arrivals, and the same fault fails the check.
    for config, want in ((UNIFORM, 0), (RING10, 1)):
        out = tmp_path / Path(config).stem
        code, _, _ = run(
            capsys, "verify", "--inject-early-update", "2",
            "--config", config, "--out", str(out),
        )
        assert code == want, config
        report = json.loads((out / "verification.json").read_text())
        assert report["all_passed"] is (want == 0)


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


def test_too_long_exact_value_is_a_clean_error(tmp_path, capsys):
    # lambda is the mean of the 2-circuit, (xi_1 + xi_2) / 2, whose
    # denominator has about 6000 digits: past Python's int-to-text limit.
    den = 10**3000
    cfg = write_config(
        tmp_path,
        {
            "mode": "rational",
            "network": {
                "N": 2,
                "topology": {"arcs": [[1, 2], [2, 1]]},
                "xi": [{"num": 1, "den": den + 19}, {"num": 1, "den": den + 21}],
                "tau": [[1, 2, 0], [2, 1, 0]],
            },
        },
    )
    out = tmp_path / "out"
    code, _, err = run(capsys, "analyze", "--config", cfg, "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out / "spectral.json") in err
    assert not out.exists()


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


def test_rational_mode_reads_decimal_timings(tmp_path, capsys):
    # The decimals 4.5, 2.0 and 0.0 give the outputs of 9/2, 2/1 and 0/1.
    def config(xi, tau, x0):
        return {
            "mode": "rational",
            "network": {
                "N": 1,
                "topology": {"regular": {"n": 1}},
                "xi": [xi],
                "tau": [[1, 1, tau]],
            },
            "x0": [x0],
            "k_max": 5,
        }

    spellings = {
        "decimal": config(4.5, 2.0, 0.0),
        "fraction": config(
            {"num": 9, "den": 2}, {"num": 2, "den": 1}, {"num": 0, "den": 1}
        ),
    }
    trees = {}
    for name, body in spellings.items():
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, body)
        out = tmp_path / name / "out"
        code, stdout, _ = run(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 0
        assert "mu = 13/2" in stdout
        trees[name] = tree(out)
    assert set(trees["decimal"]) == {"trajectory.csv", "regime.json", "contour_plot.svg"}
    assert trees["decimal"] == trees["fraction"]


def test_float_mode_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "float", "network": TIMED_RING3})
    for argv in ([], ["--mode", "float"]):
        code, _, err = run(
            capsys, "analyze", "--config", cfg, "--out", str(tmp_path), *argv
        )
        assert code == 2
        assert err.startswith("config error:") and "rational" in err
    assert not (tmp_path / "spectral.json").exists()


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
    proc = run_module(command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "x0[1]" in proc.stderr


RING3 = {"N": 3, "topology": {"regular": {"n": 3}}}
TIMED_RING3 = dict(
    RING3,
    xi=[1, 1, 1],
    tau=[[(i + d) % 3 + 1, i + 1, 1] for i in range(3) for d in (-1, 0, 1)],
)


@pytest.mark.parametrize(
    "argv, net, net_file, fields, paths",
    [
        (["analyze"], {"file": "net.json"}, dict(TIMED_RING3, topology={"regular": 3}),
         {}, {}),
        (["analyze"], dict(TIMED_RING3, xi=5), None, {}, {}),
        (["analyze"], dict(TIMED_RING3, tau=[5, 6, 7]), None, {}, {}),
        (["ca", "--schedule", "async"], RING3, None, {}, {}),
        (["ca", "--schedule", "both"], RING3, None, {}, {}),
        (["simulate", "--mode", "rational"], TIMED_RING3, None,
         {"x0": [{"num": 1, "den": 0}, 0, 0]}, {}),
        (["analyze"],
         {"N": 3, "xi": [1, 1, 1], "tau_matrix": {"rows": 3, "cols": 3, "entries": 5}},
         None, {}, {}),
        (["simulate"], TIMED_RING3, None, {"out": 5}, {}),
        (["analyze"], TIMED_RING3, None, {}, {"config": "a-directory"}),
        (["analyze"], TIMED_RING3, None, {}, {"out": "a-file"}),
        (["analyze"], {"file": 5}, None, {}, {}),
        (["analyze"], {"file": "a-directory"}, None, {}, {}),
    ],
    ids=["regular-not-an-object", "xi-not-a-list", "tau-not-triples",
         "async-without-timings", "both-without-timings", "zero-denominator",
         "tau-matrix-entries-not-a-list", "out-not-a-string",
         "config-is-a-directory", "out-is-a-file", "network-file-not-a-string",
         "network-file-is-a-directory"],
)
def test_malformed_config_is_a_config_error(tmp_path, argv, net, net_file, fields,
                                            paths):
    """Exit 2 with one config error line.  ``paths`` may point --config
    or --out at the directory tmp_path/a-directory or the file
    tmp_path/a-file instead."""
    if net_file is not None:
        (tmp_path / "net.json").write_text(json.dumps(net_file), encoding="utf-8")
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    cfg = write_config(
        tmp_path,
        {"network": net, "rule": {"eca": 150}, "s0": "010", "x0": "unit", "k_max": 3,
         **fields},
    )
    config = tmp_path / paths["config"] if "config" in paths else cfg
    out = tmp_path / paths.get("out", "out")
    proc = run_module(*argv, "--config", str(config), "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:")
    assert proc.stderr.count("\n") == 1


def config_text(body, raw) -> str:
    """The JSON text of body with the string "@" replaced by the JSON
    text raw, so that a number keeps the exact spelling of raw."""
    return json.dumps(body).replace('"@"', raw)


def quiet_main(cfg_text, *argv):
    """(exit code, output files or None, stderr) of one in-process run
    on cfg_text."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(cfg_text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        files = tree(Path(tmp) / "out") if code == 0 else None
    return code, files, err.getvalue()


# Positive decimal literals, some with an exponent, as JSON number text.
DECIMAL_TEXTS = st.builds(
    "{}.{}{}".format,
    st.integers(0, 999),
    st.from_regex(r"[0-9]{1,8}", fullmatch=True),
    st.one_of(st.just(""), st.integers(-12, 12).map("e{}".format)),
).filter(lambda text: Fraction(text) > 0)


@settings(max_examples=40, deadline=None)
@given(DECIMAL_TEXTS)
def test_decimal_timings_equal_their_fractions(text):
    # The decimal is xi_1 and the tau of arc 2 -> 1 of a 3-ring.
    def config(value):
        tau = [[j, i, value if (j, i) == (2, 1) else v] for j, i, v in TIMED_RING3["tau"]]
        return {"network": dict(TIMED_RING3, xi=[value, 1, 2], tau=tau)}

    exact = Fraction(text)
    fraction = {"num": exact.numerator, "den": exact.denominator}
    code, files, _ = quiet_main(config_text(config("@"), text), "analyze", "--mode", "rational")
    want_code, want, _ = quiet_main(json.dumps(config(fraction)), "analyze", "--mode", "rational")
    assert code == want_code == 0
    assert files == want
    code, _, err = quiet_main(config_text(config("@"), text), "analyze", "--mode", "int")
    assert code == 2 and "int mode" in err


# JSON texts that are no scalar of the mode: each pair is (mode, text).
MALFORMED_SCALARS = st.one_of(
    st.tuples(
        st.sampled_from(["int", "rational"]),
        st.one_of(
            st.sampled_from(
                ["true", "false", "null", "NaN", "Infinity", "-Infinity", "[]", "{}",
                 '{"num": 1, "den": 0}', '{"num": 1.5, "den": 2}', '{"num": 1}',
                 "1e-99999999999999999999", "9" * 5000]
            ),
            st.text(max_size=6).filter(lambda t: t != "eps").map(json.dumps),
            # Each literal's last digit has an exponent e past the cap:
            # -2.5E+(e + 1) is -25 * 10**e.
            st.integers(1001, 10**20).flatmap(
                lambda e: st.sampled_from([f"1e{e}", f"1e-{e}", f"-2.5E+{e + 1}"])
            ),
        ),
    ),
    st.tuples(st.just("int"), DECIMAL_TEXTS),
)


@settings(max_examples=150, deadline=None)
@given(MALFORMED_SCALARS, st.sampled_from(["xi", "tau", "x0"]))
def test_malformed_scalars_are_config_errors(case, field):
    mode, raw = case
    body = {"network": dict(TIMED_RING3), "x0": [0, 0, 0], "k_max": 3}
    if field == "xi":
        body["network"]["xi"] = ["@", 1, 1]
    elif field == "tau":
        body["network"]["tau"] = [[1, 1, "@"], *TIMED_RING3["tau"][1:]]
    else:
        body["x0"] = [0, "@", 0]
    code, _, err = quiet_main(config_text(body, raw), "simulate", "--mode", mode)
    assert code == 2, (raw, field, err)
    assert err.startswith("config error:") and err.count("\n") == 1, err




GENERATED_RING = {
    "network": {
        "N": 4, "topology": {"regular": {"n": 3}}, "seed": 1,
        "xi_range": [1, 5], "tau_range": [1, 5],
    },
    "rule": {"eca": 150}, "s0": "0100", "x0": "unit", "k_max": 3,
}
EXPLICIT_PAIR = {
    "network": {
        "N": 2, "topology": {"arcs": [[1, 2], [2, 1]]},
        "xi": [1, 1], "tau": [[1, 2, 1], [2, 1, 1]],
    },
    "rule": {"eca": 150}, "s0": "01", "x0": "unit", "k_max": 3,
}


# JSON true and false are ints to Python's isinstance: each of these
# fields read them as 1 and 0 until it checked the exact type.
@pytest.mark.parametrize(
    "base, path",
    [
        (GENERATED_RING, ("network", "seed")),
        (GENERATED_RING, ("rule", "eca")),
        (GENERATED_RING, ("k_max",)),
        (GENERATED_RING, ("network", "xi_range", 0)),
        (GENERATED_RING, ("network", "tau_range", 1)),
        (GENERATED_RING, ("network", "N")),
        (GENERATED_RING, ("network", "topology", "regular", "n")),
        (EXPLICIT_PAIR, ("network", "topology", "arcs", 0, 0)),
        (EXPLICIT_PAIR, ("network", "tau", 0, 1)),
    ],
    ids=lambda v: (
        ".".join(map(str, v)) if isinstance(v, tuple)
        else "ring" if v is GENERATED_RING else "pair"
    ),
)
@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_integers_in_configs(base, path, value):
    assert quiet_main(json.dumps(base), "simulate")[0] == 0
    body = json.loads(json.dumps(base))
    node = body
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, _, err = quiet_main(json.dumps(body), "simulate")
    assert code == 2, (path, err)
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


RING3 = {"N": 3, "topology": {"regular": {"n": 3}}}


@pytest.mark.parametrize(
    "network, rule",
    [
        ({"N": 3, "topology": {"regular": {"n": 3}, "arcs": [[1, 2], [2, 1]]}}, "parity"),
        (RING3, {"parity": True, "eca": 30}),
        (RING3, {"eca": 110, "x": 1}),
        (dict(TIMED_RING3, tau_matrix={"rows": 3, "cols": 3, "entries": [[1, 1, 1]] * 3}),
         "parity"),
        ({"file": "net.json", "seed": 1, "xi_range": [1, 5]}, "parity"),
    ],
    ids=["regular-and-arcs", "parity-and-eca", "eca-and-another-key", "tau-and-tau-matrix",
         "file-and-generated-timings"],
)
def test_config_naming_two_alternatives_is_refused(tmp_path, network, rule):
    # Each of these once ran one alternative and dropped the other.  A
    # network file is named by its absolute path, as the config's own
    # directory is temporary.
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(TIMED_RING3), encoding="utf-8")
    if "file" in network:
        network = dict(network, file=str(net_file))
    for base in (RING3, {"file": str(net_file)}):
        assert quiet_main(json.dumps({"network": base, "rule": "parity"}), "stg")[0] == 0
    code, _, err = quiet_main(json.dumps({"network": network, "rule": rule}), "stg")
    assert code == 2, err
    assert err.startswith("config error:") and err.count("\n") == 1, err


PAIR_ARCS = {"N": 2, "topology": {"arcs": [[1, 2], [2, 1]]}, "xi": [1, 1]}


@pytest.mark.parametrize(
    "network, fixed, message",
    [
        (dict(PAIR_ARCS, tau=[[1, 2, 1], [2, 1, 1], [1, 2, 9]]),
         dict(PAIR_ARCS, tau=[[1, 2, 1], [2, 1, 1]]),
         "tau names arc 1 -> 2 twice"),
        (dict(PAIR_ARCS, tau_matrix={"rows": 2, "cols": 2, "entries": [[50, 1], [1, 50]]}),
         dict(PAIR_ARCS, tau_matrix={"rows": 2, "cols": 2, "entries": [["eps", 1], [1, "eps"]]}),
         "tau given for non-arc 1 -> 1"),
    ],
    ids=["tau-names-an-arc-twice", "tau-matrix-entry-off-the-topology"],
)
def test_timings_that_a_reader_would_drop_are_refused(tmp_path, network, fixed, message):
    # Each once ran to lambda 6 or 2: the last tau of an arc won, or the
    # entries off the declared arcs were left out.  A network file is read
    # by the same reader.
    assert quiet_main(json.dumps({"network": fixed}), "analyze")[0] == 0
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network), encoding="utf-8")
    for block, where in ((network, ""), ({"file": str(net_file)}, f"{net_file}: ")):
        code, _, err = quiet_main(json.dumps({"network": block}), "analyze")
        assert (code, err) == (2, f"config error: network: {where}{message}\n")


@pytest.mark.parametrize("value", [1, 1.0])
def test_a_number_as_parity_true_is_refused(value):
    # 1 == True and 1.0 == True, so {"parity": 1} once ran as parity.
    assert quiet_main(json.dumps({"network": RING3, "rule": {"parity": True}}), "stg")[0] == 0
    code, _, err = quiet_main(json.dumps({"network": RING3, "rule": {"parity": value}}), "stg")
    assert code == 2, err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_huge_decimal_exponent_fails_fast():
    body = {"mode": "rational", "network": dict(TIMED_RING3, xi=["@", 1, 1])}
    start = time.perf_counter()
    code, _, err = quiet_main(config_text(body, "1e-1000000000"), "analyze")
    assert code == 2 and "xi" in err
    assert time.perf_counter() - start < 1.0


def test_inline_tau_matrix_needs_no_topology(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "network": {
                "N": 2,
                "xi": [2, 3],
                "tau_matrix": {"rows": 2, "cols": 2, "entries": [[1, 0], [4, 5]]},
            }
        },
    )
    code, out, _ = run(capsys, "analyze", "--config", cfg, "--out", str(tmp_path))
    assert code == 0
    assert "lambda = 8" in out


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


def test_failed_stream_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    pgm = tmp_path / "spacetime_async.pgm"

    def failing_raster(st):
        yield "P2\n"
        assert pgm.exists()  # the file is open and holds the first chunk
        assert (tmp_path / "spacetime_async.svg").is_file()  # written before it
        raise TropicalError("raster failed mid-stream")

    monkeypatch.setitem(cli.WRITERS, "spacetime_async.pgm", failing_raster)
    code, _, err = run(
        capsys, "ca", "--schedule", "async", "--config", RING10,
        "--out", str(tmp_path),
    )
    assert code == 2 and "raster failed mid-stream" in err
    assert not any(tmp_path.iterdir())  # the earlier writers' files go too

    # Files written from shared chunks go together: a failure in the last
    # file's own chunks removes the finished first file too.
    out = tmp_path / "pair"
    svgs = [out / name for name in cli.SPACETIME_SVGS]

    def failing_tail():
        assert all(p.exists() for p in svgs)
        assert (out / "async_contours.svg").is_file()
        yield "<polyline/>\n"
        raise TropicalError("contours failed mid-stream")

    monkeypatch.setitem(
        cli.WRITERS, cli.SPACETIME_SVGS,
        lambda st: (iter(["<svg>\n"]), (["</svg>\n"], failing_tail())),
    )
    code, _, err = run(
        capsys, "ca", "--schedule", "async", "--config", RING10, "--out", str(out),
    )
    assert code == 2 and "contours failed mid-stream" in err
    assert not out.exists()  # and the --out that the command made


def test_write_chunks_writes_text_and_bytes_alike(tmp_path):
    # Text chunks are UTF-8 encoded as they are written, bytes chunks go
    # as they are; shared chunks of either kind reach every file.
    text = ["P2\n# tropical-ca \u00fc\n", "3 1\n255\n", "0 127 255\n"]
    want = "".join(text).encode()
    data = [c.encode() for c in text]
    for name, files, shared in (
        ("text", {"f": text}, ()),
        ("bytes", {"f": data}, ()),
        ("mixed", {"f": [data[0], text[1], data[2]]}, ()),
        ("shared", {"f": text[1:], "g": data[1:]}, [data[0]]),
        ("shared text", {"f": text[1:], "g": data[1:]}, text[:1]),
    ):
        cli._write_chunks(tmp_path / name, files, shared)
        written = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert written == dict.fromkeys(files, want), name
    cli._write(tmp_path / "whole", "f", "".join(text))
    assert (tmp_path / "whole" / "f").read_bytes() == want


def test_unwritable_output_is_a_config_error(tmp_path):
    # spectral.json is a directory: open fails, exit 2 with one line, and
    # neither file of the command is left.
    out = tmp_path / "out"
    (out / "spectral.json").mkdir(parents=True)
    proc = run_module("analyze", "--config", RING10, "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        f"config error: out: cannot write {out / 'spectral.json'}: Is a directory\n"
    )
    assert [p.name for p in out.iterdir()] == ["spectral.json"]
    assert not any((out / "spectral.json").iterdir())


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_write_is_a_config_error_and_leaves_no_file(tmp_path):
    # A file that links to /dev/full fails on write (a full disk): the
    # error names it, and every file of the call goes, the link with them.
    out = tmp_path / "out"
    out.mkdir()
    (out / "g").symlink_to("/dev/full")
    with pytest.raises(ConfigError) as exc:
        cli._write_chunks(out, {"f": ["x" * 100_000], "g": ["y"]}, ["head\n"])
    assert str(exc.value) == f"out: cannot write {out / 'g'}: No space left on device"
    assert not any(out.iterdir())


def test_failed_raster_stream_leaves_no_file(tmp_path, capsys, monkeypatch):
    # The raster's own bytes chunks, cut by an error after the header and
    # the first block of rows: the file being written goes, alone or with
    # the file that shares its chunks, and so do the earlier writers' files.
    def cut(st, path):
        yield from islice(st.async_plots.raster_chunks(st.run.states), 2)
        assert path.exists()  # the file is open and holds those chunks
        assert (path.parent / "async_contours.svg").is_file()  # the first writer's
        raise TropicalError("raster failed mid-stream")

    out = tmp_path / "single"
    pgm = out / "spacetime_async.pgm"
    monkeypatch.setitem(cli.WRITERS, "spacetime_async.pgm", lambda st: cut(st, pgm))
    code, _, err = run(
        capsys, "ca", "--schedule", "async", "--config", RING10, "--out", str(out),
    )
    assert code == 2 and "raster failed mid-stream" in err
    assert not out.exists()

    out = tmp_path / "pair"
    svgs = [out / name for name in cli.SPACETIME_SVGS]
    monkeypatch.setitem(
        cli.WRITERS, cli.SPACETIME_SVGS,
        lambda st: (
            islice(st.async_plots.raster_chunks(st.run.states), 2),
            ([b"</svg>\n"], cut(st, svgs[1])),
        ),
    )
    code, _, err = run(
        capsys, "ca", "--schedule", "async", "--config", RING10, "--out", str(out),
    )
    assert code == 2 and "raster failed mid-stream" in err
    assert not out.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_write_error_at_close_is_one_line_and_leaves_no_file(tmp_path):
    # critical_graph.dot links to /dev/full: its few hundred bytes stay in
    # the file's buffer until it is closed, and the flush there fails.
    # The command exits 2 with one line naming it, and no file is left,
    # not even spectral.json, which was written before it.
    out = tmp_path / "out"
    out.mkdir()
    (out / "critical_graph.dot").symlink_to("/dev/full")
    proc = run_module("analyze", "--config", RING10, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"config error: out: cannot write {out / 'critical_graph.dot'}: "
        "No space left on device\n"
    )
    assert not any(out.iterdir())


def test_streamed_files_bypass_write(tmp_path, capsys, monkeypatch):
    # _write gets whole texts only: a profiler that wraps it may take the
    # len() of its text argument.  Of analyze's and render's files, only
    # spectral.json is formed whole; the DOT graphs stream too.
    texts, streams = [], []
    write, write_chunks = cli._write, cli._write_chunks

    def recorded_write(out_dir, name, text):
        texts.append((name, type(text)))
        write(out_dir, name, text)

    def recorded_write_chunks(out_dir, files, shared=()):
        streams.extend(files)
        write_chunks(out_dir, files, shared)

    monkeypatch.setattr(cli, "_write", recorded_write)
    monkeypatch.setattr(cli, "_write_chunks", recorded_write_chunks)
    for command in ("analyze", "render"):
        code, _, _ = run(capsys, command, "--config", RING10, "--out", str(tmp_path / command))
        assert code == 0
    assert texts == [("spectral.json", str)]
    assert set(streams) - {"spectral.json"} == {
        "critical_graph.dot", "contour_plot.svg", "async_contours.svg",
        "spacetime_async_contours.svg", "spacetime_async.svg", "spacetime_async.pgm",
        "spacetime_sync.svg", "spacetime_sync.pgm", "event_dag.dot", "stg.dot",
    }
    assert sorted(streams) == sorted(p.name for d in tmp_path.iterdir() for p in d.iterdir())


def test_async_raster_is_never_held_whole(tmp_path, capsys):
    # A 48-cell ring whose raster is mostly the shortest pixel text ("0 "),
    # so that the text is as small as it gets against any per-pixel or
    # per-row structure.  Holding the rows, the joined text or its
    # encoded bytes would each cost more than half of the file.
    cfg = write_config(tmp_path, {
        "network": {"N": 48, "topology": {"regular": {"n": 3}}, "seed": 3,
                    "xi_range": [1, 30], "tau_range": [1, 10]},
        "rule": {"eca": 90}, "s0": "0110" * 12, "x0": "unit", "k_max": 200,
    })
    argv = ["ca", "--schedule", "async", "--config", cfg,
            "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    data = (tmp_path / "out" / "spacetime_async.pgm").read_bytes()
    assert len(data) >= 8 << 20
    assert peak < len(data) / 2, (peak, len(data))
    st = cli.Stages(cli.load_experiment(cli.build_parser().parse_args(argv)))
    assert data == render.spacetime_async_pixmap(st.run, st.metadata).encode()


def test_async_svgs_are_never_held_whole(tmp_path, capsys, monkeypatch):
    # The ring of the raster test above.  Each SVG streams from the run's
    # shared layout: writing it may raise the traced memory by the layout
    # (built while the first one is written) and a block of lines, but
    # not by the file's lines, its joined text or its encoded bytes.
    cfg = write_config(tmp_path, {
        "network": {"N": 48, "topology": {"regular": {"n": 3}}, "seed": 3,
                    "xi_range": [1, 30], "tau_range": [1, 10]},
        "rule": {"eca": 90}, "s0": "0110" * 12, "x0": "unit", "k_max": 200,
    })
    out = tmp_path / "out"
    rises = {}
    write = cli.Stages.write

    def traced_write(st, *names):
        st.run  # the run itself is not part of any file's cost
        for name in names:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            write(st, name)
            rises[name] = tracemalloc.get_traced_memory()[1] - before

    monkeypatch.setattr(cli.Stages, "write", traced_write)
    tracemalloc.start()
    try:
        code = main(["ca", "--schedule", "async", "--config", cfg, "--out", str(out)])
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    # One call writes both space-time SVGs from one pass over their
    # shared lines: its rise is bounded by twice the plain file alone.
    for names, name in (
        ("async_contours.svg", "async_contours.svg"),
        (cli.SPACETIME_SVGS, "spacetime_async.svg"),
    ):
        size = (out / name).stat().st_size
        assert size >= 512 << 10
        assert rises[names] < 2 * size, (names, rises[names], size)


def test_stg_files_are_never_held_whole(tmp_path, capsys, monkeypatch):
    # Rule 150 is invertible on a 16-cell ring, so the census lists all
    # 2^16 states.  Writing either file may raise the traced memory by
    # the half-width label tables and a block of text, but not by the
    # file's labels, lines or joined text.
    cfg = write_config(tmp_path, {
        "network": {"N": 16, "topology": {"regular": {"n": 3}}},
        "rule": {"eca": 150},
    })
    out = tmp_path / "out"
    rises = {}
    write = cli.Stages.write

    def traced_write(st, *names):
        st.stg  # the graph itself is not part of any file's cost
        for name in names:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            write(st, name)
            rises[name] = tracemalloc.get_traced_memory()[1] - before

    monkeypatch.setattr(cli.Stages, "write", traced_write)
    tracemalloc.start()
    try:
        code = main(["stg", "--config", cfg, "--out", str(out)])
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    for name in ("attractor_census.json", "stg.dot"):
        size = (out / name).stat().st_size
        assert size >= 1 << 20
        assert rises[name] < size, (name, rises[name], size)


def test_trajectory_csv_is_never_held_whole(tmp_path):
    # trajectory.csv streams a block of rows at a time: writing it may
    # raise the traced memory by a block and the texts of the y values,
    # but not by the file's rows or its whole text.
    cfg = json.loads(Path(RING10).read_text())
    cfg["k_max"] = 20_000
    argv = ["simulate", "--config", write_config(tmp_path, cfg),
            "--out", str(tmp_path / "out")]
    st = cli.Stages(cli.load_experiment(cli.build_parser().parse_args(argv)))
    st.trajectory, st.summary  # not part of the file's cost
    tracemalloc.start()
    try:
        st.write("trajectory.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out" / "trajectory.csv").stat().st_size
    assert size >= 2 << 20
    assert peak < size / 2, (peak, size)


def test_verify_holds_one_state_of_each_run(tmp_path, capsys):
    # verify steps the max-plus times, the event times and states and the
    # synchronous states in lockstep, and finds the regime in a window:
    # at k_max 20 000 holding any of those runs whole would take MiBs.
    cfg = json.loads(Path(RING10).read_text())
    cfg["k_max"] = 20_000
    argv = ["verify", "--config", write_config(tmp_path, cfg),
            "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out
    assert peak - before < 1 << 20, peak - before


def test_async_plots_share_one_layout(tmp_path, capsys, monkeypatch):
    # The y texts of the update times (contours and blocks) and the height
    # texts of the hold intervals are each formatted once per run; render's
    # contour_plot.svg takes its y texts from the same layout.
    calls = []
    coordinate_texts = render._coordinate_texts

    def counted(*args):
        calls.append(len(args[0]))
        return coordinate_texts(*args)

    monkeypatch.setattr(render, "_coordinate_texts", counted)
    for argv in (["ca", "--schedule", "async"], ["render"]):
        calls.clear()
        code, _, _ = run(capsys, *argv, "--config", RING10, "--out", str(tmp_path / argv[0]))
        assert code == 0
        assert calls == [31, 10], argv  # k_max + 1 rows of times, then 10 cells


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


# -- one stage pipeline -----------------------------------------------------------


def count_steps(monkeypatch) -> list:
    """Record the calls of every synchronous stepper ``ca._compile`` builds,
    the one step every sync path takes."""
    original = ca._compile
    calls = []

    def compile_counted(rule, spec):
        step = original(rule, spec)

        def counted(code):
            calls.append(code)
            return step(code)

        return counted

    monkeypatch.setattr(ca, "_compile", compile_counted)
    return calls


@pytest.mark.parametrize(
    "argv, counter, calls",
    [
        (["render"], lambda mp: count_calls(mp, network, "build_p"), 1),
        (["render"], lambda mp: count_calls(mp, ca, "sync_orbit"), 0),
        # verify checks the bijection with the library's own function,
        # which needs no event time without a fault: the times and the
        # states are each stepped once
        (["verify"], lambda mp: count_calls(mp, ca, "bijection_mismatch"), 1),
        (["verify"], lambda mp: count_calls(mp, ca, "event_times"), 1),
        (["verify"], lambda mp: count_calls(mp, ca, "event_states"), 1),
        # the census is streamed to its file, once
        (["stg"], lambda mp: count_calls(mp, ca, "attractor_census_chunks"), 1),
        # ca checks the bijection on the event states alone: no event time
        (["ca", "--schedule", "both"],
         lambda mp: count_calls(mp, ca, "event_states"), 1),
        (["ca", "--schedule", "both"],
         lambda mp: count_calls(mp, ca, "event_times"), 0),
        # the orbit of the ring10 config has entry 0 and period 6
        (["ca", "--schedule", "sync"], count_steps, 6),
    ],
    ids=["render-build_p", "render-sync_orbit", "verify-bijection_mismatch",
         "verify-event_times", "verify-event_states", "stg-attractor_census",
         "ca-both-event_states", "ca-both-no-event_times", "ca-sync-sync_step"],
)
def test_each_stage_runs_once(tmp_path, capsys, monkeypatch, argv, counter, calls):
    recorded = counter(monkeypatch)
    code, _, _ = run(capsys, *argv, "--config", RING10, "--out", str(tmp_path))
    assert code == 0
    assert len(recorded) == calls


def test_render_files_equal_the_other_commands(tmp_path, capsys):
    rendered_dir = tmp_path / "render"
    assert run(capsys, "render", "--config", RING10, "--out", str(rendered_dir))[0] == 0
    others = {}
    for command in ("analyze", "simulate", "ca", "stg"):
        out = tmp_path / command
        assert run(capsys, command, "--config", RING10, "--out", str(out))[0] == 0
        others.update(tree(out))
    rendered = tree(rendered_dir)
    assert rendered.keys() - others.keys() == {"event_dag.dot"}
    assert len(rendered) == 10
    for name, data in rendered.items():
        if name != "event_dag.dot":
            assert data == others[name], name


# -- the cyclic collector, paused for each command -----------------------------


@pytest.fixture
def gc_setting():
    """Give the collector its setting back after the test."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def interrupted_writer(path):
    """A writer whose chunks stop with a KeyboardInterrupt, as Ctrl-C
    does, once its file is open and holds the first chunk."""
    def writer(st):
        yield "P2\n"
        assert path.exists()
        raise KeyboardInterrupt

    return writer


def exit_0(tmp_path, monkeypatch):
    return ["analyze", "--config", RING10], 0


def exit_1(tmp_path, monkeypatch):
    return ["verify", "--inject-early-update", "2", "--config", RING10], 1


def exit_2(tmp_path, monkeypatch):
    cfg = json.loads(Path(RING10).read_text())
    cfg["k_mx"] = cfg.pop("k_max")
    return ["analyze", "--config", write_config(tmp_path, cfg)], 2


def exit_130(tmp_path, monkeypatch):
    pgm = tmp_path / "out" / "spacetime_async.pgm"
    monkeypatch.setitem(cli.WRITERS, "spacetime_async.pgm", interrupted_writer(pgm))
    return ["ca", "--schedule", "async", "--config", RING10], 130


def escaping(tmp_path, monkeypatch):
    def failing(p):
        raise RuntimeError("stage failed")

    monkeypatch.setattr(spectral, "analyze", failing)
    return ["analyze", "--config", RING10], RuntimeError


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", [exit_0, exit_1, exit_2, exit_130, escaping],
                         ids=lambda case: case.__name__.replace("_", "-"))
def test_main_gives_back_the_callers_collector_setting(
        tmp_path, capsys, monkeypatch, gc_setting, case, enabled):
    # The command runs with the collector off, and the caller's setting
    # comes back on every way out of main, an escaping exception included.
    argv, want = case(tmp_path, monkeypatch)
    argv += ["--out", str(tmp_path / "out")]
    during = []
    load_experiment = cli.load_experiment

    def load(args):
        during.append(gc.isenabled())
        return load_experiment(args)

    monkeypatch.setattr(cli, "load_experiment", load)
    (gc.enable if enabled else gc.disable)()
    if isinstance(want, int):
        assert main(argv) == want
    else:
        with pytest.raises(want):
            main(argv)
    assert gc.isenabled() is enabled
    assert during == [False]
    err = capsys.readouterr().err
    if want == 130:
        # Ctrl-C is one line, and the file it cut short is gone.
        assert err == "interrupted\n"
        assert not (tmp_path / "out" / "spacetime_async.pgm").exists()


@pytest.mark.parametrize(
    "argv", [["simulate"], ["ca", "--schedule", "both"], ["render"], ["verify"]],
    ids=lambda argv: "-".join(argv),
)
def test_paused_commands_leave_no_cycles_per_cycle(tmp_path, capsys, gc_setting, argv):
    # What gc.collect() finds after a command run with the collector off
    # is the command's cyclic garbage: a few closures of json's encoder,
    # as many at k_max 400 as at 100.  The first run warms the caches of
    # argparse and the package.
    cfg = json.loads(Path(RING10).read_text())
    found = []
    for run_no, k_max in enumerate((100, 100, 400)):
        cfg["k_max"] = k_max
        path = write_config(tmp_path, cfg)
        gc.disable()
        gc.collect()
        code = main([*argv, "--config", path, "--out", str(tmp_path / f"out{run_no}")])
        found.append(gc.collect())
        assert code == 0
    capsys.readouterr()
    assert found[1] == found[2], found
