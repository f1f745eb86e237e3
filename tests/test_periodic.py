"""The periodic regime built from codes and written once.

Past the recurrence of a timed run's update times, a raster row depends
only on a few CA state codes and on its phase, and past the joint
recurrence with the CA orbit every raster row and every synchronous row
repeats an earlier one; the writers build those rows from the orbit's
codes and form each repeated one once (``render.AsyncPlots.raster_chunks``,
``spacetime_sync_chunks``, ``spacetime_sync_pixmap_chunks``).  These
tests hold every file of ``ca --schedule both`` and ``render`` to the
files of the same run handed over with no recurrence and no orbit, and
bound the rows the raster sweep still forms.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from operator import ne
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropical_ca import ca, cli, render
from tropical_ca.network import TimingParameters, explicit_network, regular_ring

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class Unrolled(cli.Stages):
    """The same stages with both recurrences withheld: the trajectory
    without its Lasso, every synchronous state stepped, and an orbit
    trace with neither entry nor period, so that every writer forms
    every row.  The orbit that ``ca`` reports is searched afresh, as
    this trace's codes may repeat."""

    @cached_property
    def trajectory(self):
        return super().trajectory._replace(recurrence=None)

    @cached_property
    def sync_trace(self):
        exp = self.exp
        states = ca.sync_states(exp.rule, exp.spec, exp.s0, exp.k_max)
        return ca.SyncOrbit(exp.spec.size, tuple(map(ca._encode, states)), None, None)

    @cached_property
    def orbit(self):
        exp = self.exp
        cap = min(1 << exp.spec.size, cli.ORBIT_STEP_CAP)
        return ca.sync_orbit(exp.rule, exp.spec, exp.s0, cap)


def tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def joint_of(exp):
    """Lasso(J, L, B) of the run as the writers see it, or None."""
    stages = cli.Stages(exp)
    return stages.async_plots._joint(stages.sync_trace.recurrence)


def written(stages_class, exp, out: Path) -> tuple:
    """The files and the lines printed by ca --schedule both and by
    render, and the number of calls that built raster rows from codes and that held a
    block of them.  A held block never passes _PIXMAP_BYTES, and so no
    chunk of its copies does."""
    calls = {"_code_rows": 0, "_held_rows": 0}

    def bounded(chunks):
        for chunk in chunks:
            assert len(chunk) <= render._PIXMAP_BYTES, len(chunk)
            yield chunk

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return bounded(function(*args)) if name == "_held_rows" else function(*args)
        return call

    printed = io.StringIO()
    files = {}
    with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stdout(printed):
        for name in calls:
            monkeypatch.setattr(render, name, counted(name, getattr(render, name)))
        for name, command in (("ca", lambda st: cli.cmd_ca(st, "both")),
                              ("render", cli.cmd_render)):
            assert command(stages_class(exp._replace(out=out / name))) == 0
            files[name] = tree(out / name)
    return files, printed.getvalue().replace(str(out), ""), calls


def check_files(exp, tmp: Path, monkeypatch, budget: int) -> dict:
    """Assert that the files of ``exp`` equal those of its unrolled run
    with rows of ``budget`` bytes per chunk; the facts of the case."""
    monkeypatch.setattr(render, "_PIXMAP_BYTES", budget)
    files, printed, calls = written(cli.Stages, exp, tmp / "periodic")
    want, want_printed, unrolled = written(Unrolled, exp, tmp / "unrolled")
    assert unrolled == {"_code_rows": 0, "_held_rows": 0}
    assert printed == want_printed
    for command, names in want.items():
        assert files[command].keys() == names.keys()
        for name, data in names.items():
            assert files[command][name] == data, (command, name)
    stages = cli.Stages(exp)
    steady = stages.async_plots._steady
    trace = stages.sync_trace
    return {
        "joint": joint_of(exp),
        "fraction": any(type(v) is Fraction for v in exp.params.xi),
        "entry": trace.entry_time or 0,
        "open": trace.recurrence is None,
        "coded": calls["_code_rows"],
        "held": calls["_held_rows"],
        "fractional D": steady is not None and steady[2] * render.TIME_SCALE % 1 != 0,
        "whole D": steady is not None and steady[2] * render.TIME_SCALE % 1 == 0,
    }


def experiment(rule, spec, params, s0, x0, k_max):
    return cli.Experiment("int", spec, params, rule, s0, x0, k_max, Path("out"), None)


def random_case(rng: random.Random, fraction: bool, n: int | None = None):
    """A ring of n cells (3 to 7 if None) under a random ECA rule, or a
    looped digraph under parity (always below 3 cells), with int or
    quarter/third/sixteenth-unit timings and a random x0."""
    if n is None:
        n = rng.randint(3, 7)
    if n >= 3 and rng.random() < 0.7:
        spec, rule = regular_ring(n, 3), ca.CARule.eca(rng.randrange(256))
    else:
        arcs = {(i, i) for i in range(n)} | {((i + 1) % n, i) for i in range(n)}
        arcs |= {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
        spec, rule = explicit_network(n, sorted(arcs)), ca.CARule.parity()
    # Fraction timings in thirds or quarters of a time unit, or in
    # sixteenths, so that many hold intervals own one raster row or none.
    den = rng.choice([3, 4, 16]) if fraction else 1

    def draw(lo, hi):
        return Fraction(rng.randint(lo, hi * 4), den) if den > 1 else rng.randint(lo, hi)

    params = TimingParameters.create(
        [draw(1, 3) for _ in range(n)],
        {(i, j): draw(0, 2) for i, nb in enumerate(spec.neighbourhoods()) for j in nb},
    )
    s0 = tuple(rng.randint(0, 1) for _ in range(n))
    x0 = tuple(draw(0, 6) for _ in range(n))
    return rule, spec, params, s0, x0


def k_max_choices(case) -> list:
    """k_max 0, 1 and J + L - 1, J + L, J + L + 1 and J + L + 2 for the
    (J, L) of the run at a long k_max, and that long k_max."""
    long_run = 200
    joint = joint_of(experiment(*case, long_run))
    if joint is None:
        return [0, 1, long_run]
    j_l = joint[0] + joint[1]
    return sorted({0, 1, *(k for k in range(j_l - 1, j_l + 3) if k >= 0), long_run})


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fraction=st.booleans(),
    budget=st.sampled_from([64, 1 << 18]),
    pick=st.integers(0, 7),
)
# Cases where a joint recurrence taken one cycle early (J - 1) is wrong,
# with the block built from codes and held, and one whose last hold
# interval before the first window end owns a single row.
@example(seed=7, fraction=False, budget=64, pick=7)
@example(seed=14, fraction=False, budget=1 << 18, pick=7)
@example(seed=78, fraction=True, budget=1 << 18, pick=7)
def test_files_equal_those_of_the_unrolled_run(tmp_path_factory, seed, fraction, budget, pick):
    case = random_case(random.Random(seed), fraction)
    choices = k_max_choices(case)
    exp = experiment(*case, choices[min(pick, len(choices) - 1)])
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_files(exp, tmp_path_factory.mktemp("case"), monkeypatch, budget)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    fraction=st.booleans(),
    budget=st.sampled_from([64, 1 << 18]),
    pick=st.integers(0, 7),
)
# Rings of 8, 9, 16 and 17 cells, whose state codes fill their last byte
# or put one cell in it, at k_max 200: the 17-cell ring's orbit is still
# open there while its times recur, and the 9-cell ring's enters its
# period at cycle 2.
@example(seed=4, n=8, fraction=False, budget=1 << 18, pick=7)
@example(seed=4, n=9, fraction=False, budget=64, pick=7)
@example(seed=3, n=16, fraction=False, budget=1 << 18, pick=7)
@example(seed=0, n=17, fraction=False, budget=1 << 18, pick=7)
def test_files_of_rings_up_to_20_cells_equal_those_of_the_unrolled_run(
    tmp_path_factory, seed, n, fraction, budget, pick
):
    # State codes that cross a byte, and a last byte of n mod 8 cells.
    case = random_case(random.Random(seed), fraction, n)
    choices = k_max_choices(case)
    exp = experiment(*case, choices[min(pick, len(choices) - 1)])
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_files(exp, tmp_path_factory.mktemp("case"), monkeypatch, budget)


def test_the_guard_covers_its_cases(tmp_path, monkeypatch):
    # Deterministic cases that reach every branch the properties guard:
    # int and Fraction timings; a whole and a fractional row shift D; a
    # whole D with rows built from codes and with the run swept whole,
    # as R0 + D > E; rows from the codes of an open and of a closed
    # orbit, and of one that enters its period after cycle 0; and a
    # closed orbit's block held and not (over the budget, or R0 + B >= E).
    keys = ("fraction", "fractional D", "coded", "open", "entry > 0", "held")
    seen = {key: set() for key in keys}
    rng = random.Random(30)
    n = 0
    while not all(len(v) == 2 for v in seen.values()):
        assert n < 60, seen
        case = random_case(rng, fraction=n % 2 == 1, n=rng.choice([None, 9, 17]))
        for k_max in k_max_choices(case):
            for budget in (64, 1 << 18):
                facts = check_files(
                    experiment(*case, k_max), tmp_path / f"{n}-{k_max}-{budget}", monkeypatch,
                    budget,
                )
                seen["fraction"].add(facts["fraction"])
                seen["fractional D"].add(facts["fractional D"])
                if facts["whole D"]:
                    seen["coded"].add(bool(facts["coded"]))
                if facts["coded"]:
                    seen["open"].add(facts["open"])
                    if not facts["open"]:
                        seen["entry > 0"].add(bool(facts["entry"]))
                        seen["held"].add(bool(facts["held"]))
        n += 1


def test_rowless_intervals_past_the_recurrence(tmp_path, monkeypatch):
    # A directed 3-cycle with self-loops and eighth-unit timings.  Past
    # its recurrence, Lasso(3, 3, 3/2), each cell's row moves 3 rows every
    # 3 intervals, but an interval of a period may own no row, so a
    # change there is not kept on a bit switch alone.
    q = Fraction(1, 8)
    spec = explicit_network(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
    params = TimingParameters.create(
        [q, 2 * q, q],
        {(0, 0): 0, (0, 2): 4 * q, (1, 0): 3 * q, (1, 1): 0, (2, 1): q, (2, 2): q},
    )
    exp = experiment(ca.CARule.parity(), spec, params, (1, 0, 1), (5 * q, q, q), 150)
    plots = cli.Stages(exp).async_plots
    assert plots._steady == (3, 3, Fraction(3, 2))
    t0, period = plots.extent[0], plots.times[3:7]
    rows = [[-((t0 - x[i]) * 2 // 1) for x in period] for i in range(3)]
    assert any(a == b for cell in rows for a, b in zip(cell, cell[1:]))
    check_files(exp, tmp_path, monkeypatch, 1 << 18)


def test_pinned_rings_equal_their_unrolled_runs(tmp_path, monkeypatch):
    # The 10-cell ring at k_max 2000 holds its block (408 rows of 320 B;
    # J is 19, where its times start to recur); a 96-cell ring whose
    # orbit enters its period at cycle 31 builds every row of its block
    # (96 rows of 3072 B, over the 256 KiB budget) from codes.
    body = json.loads((CONFIGS / "rule150_ring10.json").read_text())
    ring10 = cli.load_experiment(argparse_namespace(body, tmp_path / "ring10.json"))
    ring10 = ring10._replace(k_max=2000)
    s0 = ("111010000101101000011110111010010101000010001101101111100010001001011110"
          "110111110100010011000000")
    ring96 = {"mode": "int", "network": {"N": 96, "topology": {"regular": {"n": 3}},
              "seed": 7, "xi_range": [1, 2], "tau_range": [0, 1]},
              "rule": {"eca": 150}, "s0": s0, "x0": "unit", "k_max": 400}
    ring96 = cli.load_experiment(argparse_namespace(ring96, tmp_path / "ring96.json"))
    facts = check_files(ring10, tmp_path / "10", monkeypatch, 1 << 18)
    assert facts["joint"] == (19, 6, 408) and facts["held"] == facts["coded"] == 2
    facts = check_files(ring96, tmp_path / "96", monkeypatch, 1 << 18)
    assert facts["joint"] == (31, 16, 96) and facts["entry"] == 31
    assert facts["held"] == 0 and facts["coded"] == 2


def argparse_namespace(body: dict, path: Path):
    path.write_text(json.dumps(body), encoding="utf-8")
    return cli.build_parser().parse_args(["ca", "--config", str(path)])


# -- the work the raster sweep still does ------------------------------------------------


def test_async_raster_sweeps_few_rows_of_a_recurring_run(tmp_path, capsys, monkeypatch):
    # ca --schedule async on the 10-cell ring at k_max 2000 writes
    # 136 000 raster rows.  Its joint recurrence starts at cycle 19 and
    # repeats every 6 cycles, 408 rows; the sweep forms the rows before
    # R0 = max_i row of x_i(19) and those from the first window end E on.
    swept = []
    swept_rows = render._swept_rows

    def counted(*args):
        for chunk in swept_rows(*args):
            swept.append(chunk.count(b"\n"))
            yield chunk

    monkeypatch.setattr(render, "_swept_rows", counted)
    body = json.loads((CONFIGS / "rule150_ring10.json").read_text())
    config = tmp_path / "ring10_2k.json"
    config.write_text(json.dumps({**body, "k_max": 2000}), encoding="utf-8")
    code = cli.main(["ca", "--schedule", "async", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "spacetime_async.pgm", "rb") as fh:
        size = next(line for line in fh if not line.startswith((b"P2", b"#")))
    assert size == b"80 136000\n"
    assert sum(swept) < 5000, sum(swept)


RING256 = {
    "mode": "int", "k_max": 200, "rule": {"eca": 150}, "x0": "unit",
    "network": {"N": 256, "seed": 1817423264, "topology": {"regular": {"n": 3}},
                "xi_range": [1, 2], "tau_range": [0, 1]},
    "s0": "1101010010011111011110010001100111111000100001000011010000110110"
          "1111110010010100101110011000010001101011111000101101100011100100"
          "1010100110010101100101001010111001001111101110101000111111010000"
          "1101100101010011100101100010110010011000010110101100101011010110",
}


def test_timed_ring_sweeps_only_the_rows_outside_the_code_rows(tmp_path, monkeypatch):
    # A 256-cell rule-150 ring with narrow timings: its times recur from
    # cycle 14 (d = 1, D = 6 rows) and its orbit from 0 (period 128), so
    # its block of 768 rows of 8 KiB is over the budget.  Rows R0 = 84 to
    # E = 1184 are built from codes, at most one per row where a hold
    # interval starts; only rows 0 .. 83 and 1184 .. 1199 are swept.
    ranges, swept, built = [], [], []
    swept_rows, code_row = render._swept_rows, render._code_row

    def counted_sweep(row, changes, slots, start, stop, size):
        ranges.append((start, stop))
        for chunk in swept_rows(row, changes, slots, start, stop, size):
            swept.append(chunk.count(b"\n"))
            yield chunk

    def counted_row(n, px):
        row = code_row(n, px)
        if px == 1:  # the synchronous plot's
            return row
        return lambda code: built.append(code) or row(code)

    monkeypatch.setattr(render, "_swept_rows", counted_sweep)
    monkeypatch.setattr(render, "_code_row", counted_row)
    config = tmp_path / "ring256.json"
    config.write_text(json.dumps(RING256), encoding="utf-8")
    code = cli.main(["ca", "--schedule", "both", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "spacetime_async.pgm", "rb") as fh:
        size = next(line for line in fh if not line.startswith((b"P2", b"#")))
    assert size == b"2048 1200\n"
    assert ranges == [(0, 84), (1184, 1200)] and sum(swept) == 84 + 16
    # 550 of the 1100 code rows are built: where a hold interval starts
    # and the row's code differs from the row above's.
    assert len(built) == 550 and all(map(ne, built, built[1:]))


# -- the synchronous states ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    rule=st.integers(0, 255),
    n=st.integers(3, 12),
    bits=st.integers(0, 2**12 - 1),
    k_max=st.integers(0, 300),
)
def test_stage_sync_states_equal_the_stepped_states(rule, n, bits, k_max):
    spec, rule = regular_ring(n, 3), ca.CARule.eca(rule)
    s0 = tuple(bits >> i & 1 for i in range(n))
    stages = cli.Stages(experiment(rule, spec, None, s0, None, k_max))
    assert stages.sync_states == ca.sync_states(rule, spec, s0, k_max)
    trace = stages.sync_trace
    if trace.recurrence is None:  # no repeat by k_max: every state traced
        assert len(trace.codes) == k_max + 1
    else:
        assert trace.recurrence.end <= k_max + 1


def test_an_orbit_open_at_k_max_is_decoded_not_stepped_again(monkeypatch):
    # Rule 150 on 11 cells has period 31 from this state: at k_max 20 the
    # trace does not close, and its 21 codes are the states.
    spec, rule = regular_ring(11, 3), ca.CARule.eca(150)
    s0 = ca.state_from_string("00000100000")
    steps = []
    compile_step = ca._compile

    def counted(rule, spec):
        step = compile_step(rule, spec)
        return lambda code: steps.append(code) or step(code)

    monkeypatch.setattr(ca, "_compile", counted)
    stages = cli.Stages(experiment(rule, spec, None, s0, None, 20))
    states = stages.sync_states
    assert stages.sync_trace.recurrence is None and len(steps) == 21
    monkeypatch.setattr(ca, "_compile", compile_step)
    assert states == ca.sync_states(rule, spec, s0, 20)
    # The open trace is not the orbit: ca's own search starts afresh from
    # s0 and steps to the orbit's first repeat, s(31) = s(0).
    monkeypatch.setattr(ca, "_compile", counted)
    orbit = stages.orbit
    assert len(steps) == 21 + 31
    monkeypatch.setattr(ca, "_compile", compile_step)
    assert (orbit.entry_time, orbit.period) == (0, 31)
    assert orbit == ca.sync_orbit(rule, spec, s0, 1 << 11)


@pytest.mark.parametrize("k_max", [3, 5, 6, 40])
def test_orbit_search_over_the_cap_fails_after_a_trace(monkeypatch, k_max):
    # The ring10 orbit first repeats at step 6: with a cap of 4 the search
    # fails whether k_max is below, at or past the orbit's close.
    spec, rule = regular_ring(10, 3), ca.CARule.eca(150)
    s0 = ca.state_from_string("0000100000")
    monkeypatch.setattr(cli, "ORBIT_STEP_CAP", 4)
    stages = cli.Stages(experiment(rule, spec, None, s0, None, k_max))
    with pytest.raises(ca.CapExceededError, match="k_max = 4") as info:
        stages.orbit
    assert info.value.k_reached == 5
    assert stages.sync_states == ca.sync_states(rule, spec, s0, k_max)


def test_unrolled_stages_withhold_both_recurrences(tmp_path):
    # The guard's reference forms every row: it sees no recurrence of the
    # times and no orbit, but the same times and states.
    args = cli.build_parser().parse_args(["ca", "--config", str(CONFIGS / "rule150_ring10.json")])
    exp = cli.load_experiment(args)._replace(k_max=200)
    stages, unrolled = cli.Stages(exp), Unrolled(exp)
    assert stages.trajectory.recurrence is not None
    assert stages.sync_trace.recurrence == (0, 6, 0)
    assert unrolled.trajectory.recurrence is None
    assert unrolled.sync_trace.recurrence is None
    assert unrolled.trajectory.states == stages.trajectory.states
    assert unrolled.sync_states == stages.sync_states
    assert unrolled.async_plots._joint(None) is None
