"""Plot and graph-export geometry, determinism and read-back fidelity."""

import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    async_pixmap_grid,
    contour_plot_vertices,
    fmt_coordinate,
    hold_intervals,
    pixmap_parse,
    spacetime_async_vertices,
    spacetime_sync_cells,
    stg_dot_longhand,
)
from tropical_ca import __version__, render
from tropical_ca.ca import (
    CARule,
    async_run,
    attractor_census,
    build_stg,
    state_at,
    state_from_string,
    sync_orbit,
    sync_states,
)
from tropical_ca.errors import DimensionError
from tropical_ca.network import (
    TimingParameters,
    build_p,
    random_parameters,
    regular_ring,
)
from tropical_ca.render import (
    AsyncPlots,
    build_event_dag,
    contour_plot,
    critical_graph_dot,
    event_dag_dot,
    spacetime_async,
    spacetime_async_pixmap,
    spacetime_sync,
    spacetime_sync_chunks,
    spacetime_sync_pixmap,
    spacetime_sync_pixmap_chunks,
    stg_dot,
    stg_dot_chunks,
)
from tropical_ca.semiring import unit_vector
from tropical_ca.spectral import analyze
from tropical_ca.trajectory import Trajectory, iterate

RULE150 = CARule.eca(150)
PARITY = CARule.parity()


def seeded_run(size=10, seed=42, k_max=20, s0=None):
    spec = regular_ring(size, 3)
    params = random_parameters(spec, seed, (1, 30), (1, 10))
    if s0 is None:
        s0 = tuple(1 if i == size // 2 else 0 for i in range(size))
    return async_run(RULE150, spec, params, s0, unit_vector(size), k_max)


def uniform_run(size=8, k_max=10):
    spec = regular_ring(size, 3)
    params = random_parameters(spec, 0, (5, 5), (2, 2))
    s0 = tuple(1 if i == size // 2 else 0 for i in range(size))
    return async_run(RULE150, spec, params, s0, unit_vector(size), k_max)


def polyline_ys(svg):
    """Per-polyline list of y coordinates, in document order."""
    out = []
    for m in re.finditer(r'<polyline points="([^"]+)"', svg):
        pts = [p.split(",") for p in m.group(1).split()]
        out.append([float(y) for (_x, y) in pts])
    return out


# -- determinism ------------------------------------------------------------


def test_renderers_are_pure_functions():
    run = seeded_run()
    md = (("seed", "42"),)
    assert contour_plot(run.trajectory, md) == contour_plot(run.trajectory, md)
    assert spacetime_async(run, md) == spacetime_async(run, md)
    assert spacetime_async_pixmap(run, md) == spacetime_async_pixmap(run, md)
    stg = build_stg(PARITY, regular_ring(4, 3))
    assert stg_dot(stg, md) == stg_dot(stg, md)


def test_metadata_comment_embedded():
    run = uniform_run()
    md = (("mode", "int"), ("seed", "0"))
    svg = contour_plot(run.trajectory, md)
    assert "<!-- tropical-ca" in svg and "seed=0" in svg and "mode=int" in svg
    pgm = spacetime_async_pixmap(run, md)
    assert "# tropical-ca" in pgm and "# seed: 0" in pgm
    dot = stg_dot(build_stg(PARITY, regular_ring(4, 3)), md)
    assert "// tropical-ca" in dot


# -- contour plots ---------------------------------------------------------------


def test_contour_plot_uniform_is_evenly_spaced():
    run = uniform_run()
    svg = contour_plot(run.trajectory)
    lines = polyline_ys(svg)
    assert len(lines) == 11
    for k, ys in enumerate(lines):
        assert len(set(ys)) == 1  # horizontal
    gaps = {lines[k + 1][0] - lines[k][0] for k in range(10)}
    assert gaps == {14.0}  # 7 time units at 2 px per unit


def test_contour_plot_single_node_is_marker_column():
    traj = iterate(build_p(
        regular_ring(1, 1),
        random_parameters(regular_ring(1, 1), 0, (4, 4), (2, 2)),
    ), (0,), 5)
    svg = contour_plot(traj)
    assert "<polyline" not in svg
    assert svg.count("<circle") == 6


def test_contour_plot_monotone_in_k():
    run = seeded_run(seed=9)
    lines = polyline_ys(contour_plot(run.trajectory))
    for k in range(len(lines) - 1):
        assert all(a <= b for a, b in zip(lines[k], lines[k + 1]))


def test_contour_plot_state_markers():
    run = uniform_run(size=6, k_max=4)
    svg = contour_plot(run.trajectory, states=run.states)
    assert svg.count("<circle") == 6 * 5


def test_contour_plot_state_count_mismatch():
    run = uniform_run(size=6, k_max=4)
    with pytest.raises(DimensionError):
        contour_plot(run.trajectory, states=run.states[:-1])


# -- asynchronous space-time -----------------------------------------------------------


def test_async_svg_stages():
    run = seeded_run(k_max=8)
    plain = spacetime_async(run)
    overlay = spacetime_async(run, stage="contours")
    assert "<polyline" not in plain
    assert overlay.count("<polyline") == 9
    with pytest.raises(DimensionError):
        spacetime_async(run, stage="fancy")


def test_uniform_async_pixmap_is_stretched_sync():
    # Each hold interval is 7 time units of TIME_SCALE rows, and each
    # cell CELL_PX pixels wide, where the sync pixmap has one per cell.
    run = uniform_run(size=12, k_max=9)
    s, px = render.TIME_SCALE, render.CELL_PX
    aw, ah, arows = pixmap_parse(spacetime_async_pixmap(run))
    sw, sh, srows = pixmap_parse(spacetime_sync_pixmap(run.states))
    assert (aw, sw) == (12 * px, 12)
    assert ah == 7 * s * 9
    for r in range(ah):
        assert arows[r] == [gray for gray in srows[r // (7 * s)] for _ in range(px)]


def test_async_pixmap_probes_match_state_at():
    run = seeded_run(size=9, seed=5, k_max=15)
    s, px = render.TIME_SCALE, render.CELL_PX
    width, height, rows = pixmap_parse(spacetime_async_pixmap(run))
    assert width == 9 * px
    t0 = min(min(x) for x in run.trajectory.states)
    first, last = run.time_window()
    rng = random.Random(1)
    probes = 0
    while probes < 200:
        r = rng.randrange(height)
        i = rng.randrange(9)
        t = t0 + Fraction(r, s)
        if not (first <= t < last):
            continue
        want = state_at(run, t)[i]
        assert rows[r][i * px] == (render.GRAY1 if want else render.GRAY0)
        probes += 1


def test_async_pixmap_background_outside_window():
    run = seeded_run(size=6, seed=13, k_max=6)
    _w, height, rows = pixmap_parse(spacetime_async_pixmap(run))
    t0 = min(min(x) for x in run.trajectory.states)
    for i in range(6):
        start = run.update_times(i)[0]
        end = run.update_times(i)[6]
        for r in range(height):
            t = t0 + Fraction(r, render.TIME_SCALE)
            if t < start or t >= end:
                assert rows[r][i * render.CELL_PX] == render.GRAY_BG


def test_pixmap_parse_round_trip_errors():
    for text in ("P5\n1 1\n255\n0\n", "P2\n2 1\n255\n0\n", "", "P2\n1 1\n255\nx\n"):
        with pytest.raises(ValueError):
            pixmap_parse(text)


def assert_same_text(got, want, label):
    # Line by line: pytest's diff of two whole pixmaps or SVGs takes minutes.
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines), label
    for r, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"{label}, line {r}"


def random_timed_run(rng, kind, k_max=None, shrink=1):
    """A ring run with int or rational timings and a random x0, so
    that cells start and stop at different times; k_max is drawn from
    0..12 unless given.  Timings divided by ``shrink`` > 1 give hold
    intervals shorter than a time unit."""
    size = rng.randint(3, 9)
    spec = regular_ring(size, 3)
    if kind == "int":
        def draw(lo, hi):
            return rng.randint(lo, hi)
    else:
        def draw(lo, hi):
            return Fraction(rng.randint(lo * 6, hi * 6), rng.randint(1, 6))
    params = TimingParameters.create(
        [draw(1, 8) for _ in range(size)],
        {(i, j): draw(0, 4) for i, nb in enumerate(spec.neighbourhoods()) for j in nb},
    )
    if shrink != 1:
        params = TimingParameters.create(
            [Fraction(x, shrink) for x in params.xi],
            {arc: Fraction(t, shrink) for arc, t in params.tau.items()},
        )
    s0 = tuple(rng.randint(0, 1) for _ in range(size))
    x0 = tuple(draw(0, 30) for _ in range(size))
    rule = rng.choice([RULE150, PARITY])
    if k_max is None:
        k_max = rng.randint(0, 12)
    return async_run(rule, spec, params, s0, x0, k_max)


def test_async_pixmap_matches_per_pixel_oracle_random():
    rng = random.Random(2024)
    with_background = 0
    for case in range(60):
        run = random_timed_run(rng, ("int", "rational")[case % 2])
        md = random_metadata(rng, case)
        want = async_pixmap_grid(run, md, __version__)
        assert_same_text(spacetime_async_pixmap(run, md), want, f"case {case}")
        _w, _h, rows = pixmap_parse(want)
        with_background += any(render.GRAY_BG in row for row in rows)
    assert with_background >= 40


def test_async_pixmap_keeps_switches_behind_rowless_intervals():
    # The raster keeps one change per switch of a cell's gray.  Short
    # timings cut to a tenth, at two rows per time unit, give hold
    # intervals that own no row, and a switch may hide behind one:
    # interval k's gray equals interval k-1's, yet differs from the gray
    # on the rows above.  One run in four keeps its integer timings,
    # where every interval owns a row.
    spec = regular_ring(4, 3)
    rules = [CARule.eca(r) for r in (30, 90, 110, 150, 204)]
    s = render.TIME_SCALE
    rowless = 0
    for seed in range(300):
        params = random_parameters(spec, seed, (1, 2), (0, 1))
        if seed % 4:
            params = TimingParameters.create(
                [Fraction(x, 10) for x in params.xi],
                {arc: Fraction(t, 10) for arc, t in params.tau.items()},
            )
        rng = random.Random(seed)
        s0 = tuple(rng.randint(0, 1) for _ in range(4))
        run = async_run(rules[seed % len(rules)], spec, params, s0, unit_vector(4), 24)
        t0 = min(run.trajectory.states[0])
        rowless += any(
            math.ceil((a - t0) * s) == math.ceil((b - t0) * s)
            for i in range(4)
            for a, b, _bit in hold_intervals(run, i)
        )
        want = async_pixmap_grid(run, (), __version__)
        assert_same_text(spacetime_async_pixmap(run), want, f"seed {seed}")
    assert rowless >= 200, rowless


def test_async_pixmap_chunks_are_blocks_of_whole_lines():
    run = seeded_run(k_max=30)
    md = (("seed", "42"),)
    chunks = list(AsyncPlots(run.trajectory, md).raster_chunks(run.states))
    assert len(chunks) > 2 and all(c.endswith(b"\n") for c in chunks)
    assert chunks[0].startswith(b"P2\n# tropical-ca")
    text = b"".join(chunks).decode()
    assert_same_text(text, async_pixmap_grid(run, md, __version__), "chunks")


def spacetime_stage_chunks(plots, stage, states):
    """One stage's chunks of the space-time SVG pair, as the CLI writes
    them: the shared header and rects, then that stage's tail."""
    shared, tails = plots.spacetime_pair_chunks(states)
    return chain(shared, tails[stage == "contours"])


def random_metadata(rng, case):
    """The metadata pairs of a command, or none, at random."""
    return (("case", str(case)), ("mode", "random")) if rng.random() < 0.5 else ()


def test_svg_emitters_match_per_vertex_oracles_random():
    rng = random.Random(1975)
    for case in range(60):
        kind = ("int", "rational")[case % 2]
        run = random_timed_run(rng, kind)
        md = random_metadata(rng, case)
        label = f"case {case} ({kind})"
        for stage in ("plain", "contours"):
            assert_same_text(
                spacetime_async(run, md, stage),
                spacetime_async_vertices(run, md, __version__, stage),
                f"{label} spacetime_async {stage}",
            )
        assert_same_text(
            contour_plot(run.trajectory, md),
            contour_plot_vertices(run.trajectory, md, __version__),
            f"{label} contour_plot",
        )
        assert_same_text(
            contour_plot(run.trajectory, md, states=run.states),
            contour_plot_vertices(run.trajectory, md, __version__, run.states),
            f"{label} contour_plot with states",
        )
        assert_same_text(
            spacetime_sync(run.states, md),
            spacetime_sync_cells(run.states, md, __version__),
            f"{label} spacetime_sync",
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1 << 32),
    kind=st.sampled_from(["int", "rational"]),
    k_max=st.integers(0, 48),
    shrink=st.sampled_from([1, 10]),
)
def test_joined_svgs_and_recurrence_cut_heights_match_oracles(seed, kind, k_max, shrink):
    # The SVG lines are joined from reused parts, and the heights of a run
    # that recurs are formatted up to the recurrence and repeated.  Both
    # equal the per-vertex oracles, for the trajectory of iterate and for
    # the same states hand-built with no recurrence.  Timings shrunk to a
    # tenth give the raster rowless hold intervals.
    rng = random.Random(seed)
    run = random_timed_run(rng, kind, k_max, shrink)
    md = random_metadata(rng, seed)
    traj = run.trajectory
    if traj.recurrence is not None:
        m, d, c = traj.recurrence
        assert 0 <= m and 1 <= d and m + d <= k_max
        for j in range(m, k_max + 1 - d):
            assert traj.states[j + d] == tuple(v + c for v in traj.states[j])
    hand = run._replace(trajectory=Trajectory(traj.matrix, traj.states))
    assert hand.trajectory.recurrence is None
    n = traj.size
    for r in (run, hand):
        plots = AsyncPlots(r.trajectory, md)
        assert plots.heights == [
            [fmt_coordinate((b - a) * render.TIME_SCALE) for a, b, _bit in hold_intervals(r, i)]
            for i in range(n)
        ]
        files = [
            ("contours", plots.contour_chunks(r.states),
             contour_plot_vertices(r.trajectory, md, __version__, r.states)),
            *(
                (stage, spacetime_stage_chunks(plots, stage, r.states),
                 spacetime_async_vertices(r, md, __version__, stage))
                for stage in ("plain", "contours")
            ),
        ]
        for label, chunks, oracle in files:
            assert_same_text("".join(chunks), oracle, label)
        raster = b"".join(plots.raster_chunks(r.states)).decode()
        assert_same_text(raster, async_pixmap_grid(r, md, __version__), "raster")


def test_shared_layout_chunks_equal_the_public_renderers():
    """One AsyncPlots serves the four async files in the CLI's order.
    Each chunk ends a line, and each file's chunks join to the text of the
    public renderer (which lays the run out afresh) and of its oracle.
    The raster's chunks are the UTF-8 bytes of that text, the others
    str."""
    rng = random.Random(1066)
    runs = [
        (f"{kind}, k_max {k_max}", random_timed_run(rng, kind, k_max))
        for kind in ("int", "rational")
        for k_max in (0, 1, None)
    ]
    runs.append(("24 cells", seeded_run(size=24, k_max=40)))
    for label, run in runs:
        md = random_metadata(rng, label)
        plots = AsyncPlots(run.trajectory, md)
        files = [
            ("contours", plots.contour_chunks(run.states),
             contour_plot(run.trajectory, md, states=run.states),
             contour_plot_vertices(run.trajectory, md, __version__, run.states)),
            *(
                (stage, spacetime_stage_chunks(plots, stage, run.states), spacetime_async(run, md, stage),
                 spacetime_async_vertices(run, md, __version__, stage))
                for stage in ("contours", "plain")
            ),
            ("raster", plots.raster_chunks(run.states), spacetime_async_pixmap(run, md),
             async_pixmap_grid(run, md, __version__)),
        ]
        for name, chunks, public, oracle in files:
            chunks = list(chunks)
            newline = b"\n" if name == "raster" else "\n"
            assert all(type(c) is type(newline) for c in chunks), (label, name)
            assert all(c.endswith(newline) for c in chunks), (label, name)
            if label == "24 cells":
                assert len(chunks) > 1, name
            joined = newline[:0].join(chunks)
            assert joined == (public.encode() if name == "raster" else public), (label, name)
            assert_same_text(public, oracle, f"{label} {name}")


def test_raster_chunks_are_sized_in_bytes(monkeypatch):
    # A chunk holds as many rows as fit in the byte target, so a wide
    # raster is not joined 256 rows (megabytes) at a time; a raster whose
    # rows (4096 bytes here) are wider than the target gets one row per
    # chunk.
    run = seeded_run(size=128, k_max=5)
    for target in (render._PIXMAP_BYTES, 1024):
        monkeypatch.setattr(render, "_PIXMAP_BYTES", target)
        chunks = list(AsyncPlots(run.trajectory).raster_chunks(run.states))
        text = b"".join(chunks)
        assert text == spacetime_async_pixmap(run).encode()
        row = max(map(len, text.splitlines())) + 1
        assert len(chunks) > 3
        assert all(len(c) <= render._PIXMAP_BYTES + row for c in chunks)


def raster_change_rise(rule):
    """Traced rise per (cell, cycle) of collecting the raster's changes
    for a 10-cell ring at k_max 20 000 under ``rule``.  Its wide timings
    make nearly every update time of the run distinct.  The run is laid
    out without its recurrence, so that the raster is swept whole and
    every hold interval's change is considered."""
    k_max = 20_000
    spec = regular_ring(10, 3)
    params = random_parameters(spec, 7, (1, 10**6), (1, 10**6))
    s0 = state_from_string("0000100000")
    run = async_run(rule, spec, params, s0, unit_vector(10), k_max)
    cells_cycles = 10 * (k_max + 1)
    assert len(set(chain.from_iterable(run.trajectory.states))) > 0.9 * cells_cycles
    plots = AsyncPlots(run.trajectory._replace(recurrence=None))
    plots.time_columns  # the layout is not part of the cost
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        plots.raster_chunks(run.states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / cells_cycles


def test_raster_changes_hold_no_table_over_the_update_times():
    # Collecting the raster's row changes may hold a list entry per hold
    # interval and one cell's column of rows, but no table keyed by the
    # run's update times, which costs about 60 B more per cell and cycle.
    rise = raster_change_rise(RULE150)
    assert rise < 100, rise


def test_raster_changes_are_one_per_gray_switch():
    # The identity rule never switches a cell's gray after its first
    # interval, so its changes are a few per cell: what is left is the
    # bit columns and one cell's column of rows.  Rule 150 switches about
    # every other interval; a change per hold interval took 60 B.
    rise = raster_change_rise(CARule.eca(204))
    assert rise < 20, rise
    rise = raster_change_rise(RULE150)
    assert rise < 45, rise


# -- synchronous space-time -------------------------------------------------------------


def test_sync_svg_chunks_are_blocks_of_lines_never_the_whole_text():
    # 256 cells over 200 steps: a chunk of about _SVG_BLOCK lines holds two
    # rows.  Taking the chunks one at a time may hold one of them, but
    # not the file's rows or its text (3 MB).
    states = sync_states(CARule.eca(110), regular_ring(256, 3), (0, 1) * 128, 200)
    md = (("N", "256"),)
    size = 0
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for chunk in spacetime_sync_chunks(states, md):
            assert chunk.endswith("\n") and chunk.count("\n") <= render._SVG_BLOCK
            size += len(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size >= 3_000_000
    assert peak - before < size / 16, (peak - before, size)
    text = "".join(spacetime_sync_chunks(states, md))
    assert_same_text(text, spacetime_sync_cells(states, md, __version__), "sync")


def test_sync_pixmap_chunks_are_blocks_of_rows_never_the_whole_text():
    # 256 cells over 8000 steps: a chunk holds as many whole rows as fit
    # in _PIXMAP_BYTES.  Taking the chunks one at a time may hold a few
    # chunks' worth of rows, but not the file's rows or its text (4 MB).
    states = sync_states(CARule.eca(110), regular_ring(256, 3), (0, 1) * 128, 8000)
    md = (("N", "256"),)
    chunks = 0
    size = 0
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for chunk in spacetime_sync_pixmap_chunks(states, md):
            assert chunk.endswith(b"\n") and len(chunk) <= render._PIXMAP_BYTES
            chunks += 1
            size += len(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size >= 4_000_000 and chunks > 16
    assert peak - before < 3 * render._PIXMAP_BYTES < size / 4, (peak - before, size)
    text = spacetime_sync_pixmap(states, md)
    assert text.startswith(f"P2\n# tropical-ca {__version__}\n# N: 256\n256 8001\n255\n")
    gray = (str(render.GRAY0), str(render.GRAY1))
    assert text.split("\n")[-len(states) - 1 :] == [
        *[" ".join(gray[b] for b in s) for s in states], ""
    ]
    with pytest.raises(DimensionError):
        spacetime_sync_pixmap_chunks([], md)


def test_sync_plot_all_zero_single_color():
    states = [(0, 0, 0)] * 4
    svg = spacetime_sync(states)
    assert svg.count(f'fill="{render.COLOR0}"') == 12
    assert f'fill="{render.COLOR1}"' not in svg


def test_sync_pattern_symmetric_about_seed():
    spec = regular_ring(20, 3)
    s0 = state_from_string("00000000001000000000")
    orbit = sync_orbit(RULE150, spec, s0, 1 << 20)
    states = orbit.states_through(30)
    _w, _h, rows = pixmap_parse(spacetime_sync_pixmap(states))
    for row in rows:
        for d in range(1, 10):
            assert row[(10 + d) % 20] == row[(10 - d) % 20]


def test_sync_rows_repeat_with_period():
    spec = regular_ring(10, 3)
    orbit = sync_orbit(RULE150, spec, state_from_string("0000100000"), 1 << 10)
    states = orbit.states_through(19)
    _w, _h, rows = pixmap_parse(spacetime_sync_pixmap(states))
    for k in range(20 - orbit.period):
        assert rows[k] == rows[k + orbit.period]


def test_sync_plot_needs_states():
    with pytest.raises(DimensionError):
        spacetime_sync([])


# -- graph exports ------------------------------------------------------------------------


def test_stg_dot_two_state_system():
    stg = build_stg(PARITY, regular_ring(1, 1))
    dot = stg_dot(stg)
    assert dot.count("->") == 2
    assert '"0" -> "0"' in dot and '"1" -> "1"' in dot


def test_stg_dot_spanning_chunks_matches_longhand():
    # 2^13 states: 16 k node and arc lines in full chunks, from label
    # halves of unequal widths (6 and 7 bits); 2^14 states fill sixteen
    # chunks of each.  On 1 cell the high half is the empty label, and on
    # 2 cells each half is one bit.
    for n in (1, 2, 13, 14):
        stg = build_stg(PARITY, regular_ring(n, 3 if n > 2 else 1))
        assert (stg.label_halves[0] == [""]) == (n == 1)
        md = (("N", str(n)),)
        chunks = list(stg_dot_chunks(stg, md))
        assert len(chunks) > 2 and all(c.endswith("\n") for c in chunks)
        assert max(c.count("\n") for c in chunks) <= render._STG_BLOCK
        want = stg_dot_longhand(n, stg.successors, stg.on_attractor, md, __version__)
        assert_same_text("".join(chunks), want, f"stg on {n} cells")
    assert max(c.count("\n") for c in chunks) == render._STG_BLOCK


def test_stg_dot_out_degree_one_and_styling():
    stg = build_stg(RULE150, regular_ring(4, 3))
    dot = stg_dot(stg)
    arc_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(arc_lines) == 16
    sources = [ln.split("->")[0].strip().strip('"') for ln in arc_lines]
    assert sorted(sources) == sorted(
        format(c, "04b") for c in range(16)
    )
    on_attractor = len(stg.attractor_codes)
    bold_arcs = sum(1 for ln in arc_lines if "penwidth=2" in ln)
    assert bold_arcs == on_attractor
    census = attractor_census(stg)
    census_states = len(census["fixed_points"]) + sum(
        c["period"] for c in census["cycles"]
    )
    assert census_states == on_attractor


def test_event_dag_single_cell_chain():
    spec = regular_ring(1, 1)
    params = random_parameters(spec, 0, (4, 4), (2, 2))
    run = async_run(PARITY, spec, params, (1,), (0,), 4)
    events, arcs = build_event_dag(run)
    # One processor: events are totally ordered by time.
    stamps = sorted(t for (_kind, _cell, _k, t) in events.values())
    assert len(set(stamps)) == len(stamps)
    incoming = {}
    for (a, b, _label) in arcs:
        incoming.setdefault(b, []).append(a)
    for eid, (kind, _cell, _k, _t) in events.items():
        if kind == "receive":
            assert len([a for a in incoming[eid] if a.startswith("s")]) == 1


def test_event_dag_ring_receive_in_degree_three():
    run = seeded_run(size=6, seed=2, k_max=5)
    events, arcs = build_event_dag(run)
    message_arcs = {}
    for (a, b, label) in arcs:
        if label.startswith("tau"):
            message_arcs.setdefault(b, []).append(a)
    receives = [e for e, v in events.items() if v[0] == "receive"]
    assert receives and all(len(message_arcs[e]) == 3 for e in receives)


def test_event_dag_arcs_never_go_back_in_time():
    run = seeded_run(size=7, seed=31, k_max=6)
    events, arcs = build_event_dag(run)
    for (a, b, _label) in arcs:
        assert events[a][3] <= events[b][3]


def test_event_dag_range_check():
    # The DAG covers the cycles 0..min(3, k_max): a send per cell and
    # cycle, and a receive per cell and cycle from 1 on.
    for k_max, cycles in ((4, 4), (1, 2), (0, 1)):
        run = seeded_run(size=5, seed=1, k_max=k_max)
        events, _arcs = build_event_dag(run)
        sends = sorted({k for kind, _i, k, _t in events.values() if kind == "send"})
        assert sends == list(range(cycles))
        assert len(events) == 5 * (2 * cycles - 1)
    assert event_dag_dot(run).startswith("digraph events {")


def test_critical_graph_dot_highlights():
    spec = regular_ring(5, 3)
    P = build_p(spec, random_parameters(spec, 6, (1, 30), (1, 10)))
    summary = analyze(P)
    dot = critical_graph_dot(P, summary.critical)
    arc_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(arc_lines) == len(spec.arcs)
    bold = sum(1 for ln in arc_lines if "penwidth=2" in ln)
    assert bold == len(summary.critical.arcs)
