"""Deterministic renderers: SVG and PGM plots, DOT graph exports.

Rendering is pure: the same inputs yield byte-identical output, and every
file embeds a metadata comment (parameters, not wall-clock anything).
Time runs downward in all space-time views.  State 0 renders dark and
state 1 light.

The pixmap renderers use exact arithmetic for their geometry: with
s = TIME_SCALE pixels per time unit, pixel row r samples the instant
t0 + r/s, and a memory interval [a, b) owns exactly the rows with
a <= t0 + r/s < b.  That makes the plots point-samplable: reading a pixel
back answers "which state was cell i holding at this instant", which the
test-suite cross-checks against the state query API.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain, groupby, islice, repeat, starmap
from operator import getitem, sub

from ._version import __version__
from .ca import AsyncRun, StateTransitionGraph, _encode
from .errors import DimensionError
from .semiring import MaxPlusMatrix, Scalar, canonical, format_scalar
from .spectral import CriticalGraph, build_graph
from .trajectory import Lasso, Trajectory


# The plots' geometry and palette: pixels per time unit (vertical) and
# per cell (horizontal), the SVGs' margin, the colours of states 0 and 1,
# of the background and of the contours, and the PGM grays of states 0
# and 1 and of the background.  Every file also embeds its metadata: the
# sorted (key, value) pairs that the command builds from its config.
TIME_SCALE = 2
CELL_PX = 8
MARGIN = 12
COLOR0 = "#20242c"
COLOR1 = "#f2ead7"
BACKGROUND = "#ffffff"
CONTOUR_COLOR = "#c03a2b"
GRAY0 = 0
GRAY1 = 255
GRAY_BG = 127
# Bytes a raster pixel takes: its widest gray and a separator.
_PIXEL_BYTES = max(len(str(gray)) for gray in (GRAY0, GRAY1, GRAY_BG)) + 1


def _fmt(v: Scalar) -> str:
    """Deterministic coordinate text: integral values bare, other rationals
    via repr of the correctly rounded float conversion."""
    if isinstance(v, int):
        return str(v)
    if v.denominator == 1:
        return str(v.numerator)
    return repr(float(v))


def _svg_header(width, height, metadata) -> list:
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        _comment_svg(metadata),
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'fill="{BACKGROUND}"/>',
    ]
    return lines


def _comment_svg(metadata) -> str:
    parts = [f"tropical-ca {__version__}"]
    parts += [f"{k}={v}" for k, v in metadata]
    return "<!-- " + " | ".join(parts) + " -->"


def _comment_lines(metadata, prefix: str) -> list:
    lines = [f"{prefix} tropical-ca {__version__}"]
    lines += [f"{prefix} {k}: {v}" for k, v in metadata]
    return lines


# Lines per chunk of the streamed texts: 512 SVG lines (under 100 B
# each; the synchronous plot's chunks hold whole rows, at least one) or
# up to 1024 DOT lines (an STG's are about 74 KiB at N = 14).  A raster
# row's width varies, so its chunks hold as many rows as fit in
# _PIXMAP_BYTES (at least one).
_PIXMAP_BYTES = 1 << 18
_SVG_BLOCK = 512
_STG_BLOCK = 1024


def _line_blocks(lines, size: int) -> Iterator[str]:
    """Newline-terminated lines, joined size at a time."""
    lines = iter(lines)
    while block := list(islice(lines, size)):
        block.append("")
        yield "\n".join(block)


# -- SVG text -----------------------------------------------------------------


def _coordinate_texts(rows, offset, origin, scale) -> list:
    """Per row, the text of the pixel coordinate offset + (v - origin)·scale
    of each value v in it, formatted once per distinct value (equal ints
    and Fractions give equal text, so the memo keys on the value)."""
    memo = dict.fromkeys(chain.from_iterable(rows))
    for v in memo:
        memo[v] = _fmt(offset + (v - origin) * scale)
    return [list(map(memo.__getitem__, row)) for row in rows]


def _polylines(xs: list, y_rows) -> Iterator[str]:
    """Per row of y texts, the contour polyline through the points
    (xs[i], ys[i]).  Each row is slice-assigned into one reused list of
    parts, which is joined once."""
    parts = [None] * (2 * len(xs) + 1)
    parts[::2] = [
        f'<polyline points="{xs[0]},',
        *[f" {x}," for x in xs[1:]],
        f'" fill="none" stroke="{CONTOUR_COLOR}" stroke-width="1"/>',
    ]
    for ys in y_rows:
        parts[1::2] = ys
        yield "".join(parts)


def _marker_rows(xs: list, y_rows, states) -> Iterator[str]:
    """Per row of y texts and CA state, the state markers at the points
    (xs[i], ys[i]): its lines joined by newlines, without the last one.
    Cell i's piece ends its marker in the colour of its bit and starts
    the marker of cell i + 1; each row's y texts and pieces are
    slice-assigned into one reused list of parts, which is joined once."""
    marker = [f'<circle cx="{x}" cy="' for x in xs]
    tail = [
        f'" r="3" fill="{color}" stroke="#555555" stroke-width="0.5"/>'
        for color in (COLOR0, COLOR1)
    ]
    pieces = [(f"{tail[0]}\n{m}", f"{tail[1]}\n{m}") for m in marker[1:]]
    pieces.append(tuple(tail))
    parts = [None] * (2 * len(xs) + 1)
    parts[0] = marker[0]
    for ys, bits in zip(y_rows, states):
        parts[1::2] = ys
        parts[2::2] = map(getitem, pieces, bits)
        yield "".join(parts)


# -- the plots of a timed run ----------------------------------------------------


class AsyncPlots:
    """The layout of one timed run's plots, with their metadata pairs.

    ``trajectory.states`` are the update times x(0..k_max), one row per
    cycle.  The layout depends on the times only: each plot takes the CA
    states of the same cycles (0/1 per cell) per call, and a contour plot
    may take none.  The contour plot, both space-time SVGs and the raster
    share one layout, and each part of it (time extent, per-cell columns,
    y and height texts) is computed on first use and kept.  The lines of
    a file are made only as its chunks are taken, so no file's text is
    ever held whole.
    """

    def __init__(self, trajectory: Trajectory, metadata: tuple = ()):
        self.trajectory = trajectory
        self.times = trajectory.states
        self.size = trajectory.size
        self.metadata = metadata

    @cached_property
    def extent(self) -> tuple:
        """(t0, t1): the earliest and the latest update time, which lie
        before the recurrence's end or in the last period where it recurs."""
        times, rec = self.times, self.trajectory.recurrence
        if rec is not None:
            times = times[: rec.end] + times[-rec.period :]
        return min(map(min, times)), max(map(max, times))

    @cached_property
    def time_columns(self) -> list:
        """Per cell, its update times x_i(0..k_max)."""
        return list(zip(*self.times))

    @cached_property
    def y_rows(self) -> list:
        """Per cycle, the y text of each cell's update time; time runs
        downward from t0."""
        return _coordinate_texts(self.times, MARGIN, self.extent[0], TIME_SCALE)

    @cached_property
    def y_columns(self) -> list:
        return list(zip(*self.y_rows))

    @cached_property
    def heights(self) -> list:
        """Per cell, the height text of each hold interval; where the run
        recurs, those before its end are formatted and repeated."""
        k_max, rec = len(self.times) - 1, self.trajectory.recurrence
        cut = k_max if rec is None else min(k_max, rec.end)
        texts = _coordinate_texts(
            [list(map(sub, times[1 : cut + 1], times)) for times in self.time_columns],
            0, 0, TIME_SCALE,
        )
        return texts if rec is None else [list(rec.repeat(head, k_max)) for head in texts]

    def _svg_height(self):
        t0, t1 = self.extent
        return 2 * MARGIN + (t1 - t0) * TIME_SCALE

    def _checked(self, states):
        """The CA states, one per cycle of the layout."""
        if len(states) != len(self.times):
            raise DimensionError("one CA state per contour required")
        return states

    def contour_chunks(self, states=None) -> Iterator[str]:
        """The text of :func:`contour_plot` in blocks of whole lines, with
        these CA states as markers (None for none): the header, the lines
        of about _SVG_BLOCK // (lines per cycle) cycles per block, and the
        closing tag."""
        n = self.size
        if states is not None:
            self._checked(states)
        width = 2 * MARGIN + (n - 1) * CELL_PX
        header = _svg_header(width, self._svg_height(), self.metadata)
        xs = [_fmt(MARGIN + i * CELL_PX) for i in range(n)]
        # Per cycle, its polyline and its markers (or a single cell's dot).
        rows = [_polylines(xs, self.y_rows)] if n > 1 else []
        if states is not None:
            rows.append(_marker_rows(xs, self.y_rows, states))
        elif n == 1:
            dot = (f'<circle cx="{xs[0]}" cy="', f'" r="2" fill="{CONTOUR_COLOR}"/>')
            rows.append(y.join(dot) for (y,) in self.y_rows)
        lines = (n > 1) + (n if states is not None else n == 1)  # per cycle
        body = _line_blocks(
            chain.from_iterable(zip(*rows)), len(rows) * max(1, _SVG_BLOCK // lines)
        )
        return chain(_line_blocks(header, len(header)), body, ["</svg>\n"])

    def spacetime_pair_chunks(self, states) -> tuple:
        """Both stages of :func:`spacetime_async` as (shared, (plain,
        contours)), each a chunk iterator of whole lines.  Both files
        open with the shared header and hold-interval rects, so a writer
        of the two formats those once; the plain file then only closes,
        the contours file adds a polyline per cycle first."""
        width = 2 * MARGIN + self.size * CELL_PX
        header = _svg_header(width, self._svg_height(), self.metadata)
        rects = self._rect_blocks(zip(*self._checked(states)))
        half = canonical(Fraction(CELL_PX, 2))
        xs = [_fmt(MARGIN + i * CELL_PX + half) for i in range(self.size)]
        contours = chain(_polylines(xs, self.y_rows), ["</svg>"])
        return (
            chain(_line_blocks(header, len(header)), rects),
            (["</svg>\n"], _line_blocks(contours, _SVG_BLOCK)),
        )

    def _rect_blocks(self, bit_columns) -> Iterator[str]:
        """The hold-interval rects, cell by cell, in blocks of at most
        _SVG_BLOCK lines.  Cell i's k-th rect spans [x_i(k), x_i(k+1))
        and shows states[k][i].  A block is one join of a reused list of
        parts: per line its top, the fixed width text, its height and the
        piece that its bit indexes, which ends the rect in that bit's
        colour and starts the cell's next rect."""
        width = f'" width="{CELL_PX}" height="'
        fill = (f'" fill="{COLOR0}"/>\n', f'" fill="{COLOR1}"/>\n')
        k_max = len(self.times) - 1
        parts = []
        columns = zip(self.y_columns, self.heights, bit_columns)
        for i, (tops, heights, bits) in enumerate(columns):
            rect = f'<rect x="{_fmt(MARGIN + i * CELL_PX)}" y="'
            pieces = (fill[0] + rect, fill[1] + rect)
            for k in range(0, k_max, _SVG_BLOCK):
                end = min(k + _SVG_BLOCK, k_max)
                if len(parts) != 4 * (end - k) + 1:
                    parts = [rect, *[None, width, None, None] * (end - k)]
                parts[0] = rect
                parts[1::4] = tops[k:end]
                parts[3::4] = heights[k:end]
                parts[4::4] = [pieces[b] for b in bits[k:end]]
                parts[-1] = fill[bits[end - 1]]
                yield "".join(parts)

    def raster_size(self) -> tuple:
        """(height, width in bytes of its widest row) of the raster's
        rows, without building any: a row per 1/TIME_SCALE from t0 to
        the latest x_i(k_max), and per cell CELL_PX pixels, each with its
        separator."""
        height = math.ceil((max(self.times[-1]) - self.extent[0]) * TIME_SCALE)
        return max(1, height), self.size * CELL_PX * _PIXEL_BYTES

    @cached_property
    def _steady(self) -> Lasso | None:
        """trajectory.recurrence, x(j + d) = c ⊗ x(j) for j >= m, where
        every cell's update times increase; else None."""
        rec = self.trajectory.recurrence
        return None if rec is None or self.trajectory.first_stall() else rec

    def _joint(self, orbit: Lasso | None) -> Lasso | None:
        """Lasso(J, L, B), :attr:`_steady` joined with the CA orbit's, its
        shift B in raster rows; None where the times or the states do not
        recur, or B is not a whole number."""
        if self._steady is None or orbit is None:
            return None
        joint = self._steady.join(orbit)
        rows = joint.shift * TIME_SCALE
        return None if rows % 1 else joint._replace(shift=int(rows))

    def raster_chunks(self, states, trace=None) -> Iterator[bytes]:
        """The bytes of :func:`spacetime_async_pixmap` in chunks of whole
        lines, header first.  The changes of the rows that are swept are
        collected when this is called, one per gray switch; the rows are
        built only as the chunks are taken.

        ``trace`` is the :class:`~tropical_ca.ca.SyncOrbit` whose codes
        are the states' (folded into its period past its entry where it
        closes), or None: the states are then encoded.  Where the update
        times recur, Lasso(m, d, c) = :attr:`_steady`, and D = c·TIME_SCALE
        is whole, a cell's interval k + d starts D rows below its interval
        k for k >= m.  From cycle J on (J of :meth:`_joint` where the orbit
        closes, else m), the rows R0 = max_i row of x_i(J) .. E - 1, where
        E = min_i row of x_i(k_max) is the first window end, are built
        from the codes (:func:`_code_rows`).  Only the rows before R0 and
        from E on are swept, from the changes of the intervals that own
        them.  Where the orbit closes, its block of B rows fits in
        _PIXMAP_BYTES and R0 + B < E, rows R0 + B .. E - 1 are copies of
        the block (:func:`_held_rows`).  A run with no whole D, or with
        R0 + D > E, is swept whole."""
        n = self.size
        t0 = self.extent[0]
        s = TIME_SCALE
        height, row_bytes = self.raster_size()
        states = self._checked(states)
        # Per cell, the bytes of its CELL_PX equal pixels and the separator
        # after them (the newline after the last cell), per gray code
        # (dark, light, background); a swept row is its cells' fragments
        # joined.
        grays = [" ".join([str(gray)] * CELL_PX) for gray in (GRAY0, GRAY1, GRAY_BG)]
        fragments = [
            [(gray + sep).encode() for gray in grays] for sep in [" "] * (n - 1) + ["\n"]
        ]
        slots = [(i, f) for i, cell in enumerate(fragments) for f in cell]
        background = [cell[2] for cell in fragments]
        size = max(1, _PIXMAP_BYTES // row_bytes)
        header = [_pgm_header(self.metadata, n * CELL_PX, height)]
        times, k_max = self.times, len(self.times) - 1
        # Each change of a cell's gray is one int, row·3n + 3·cell + gray code
        # (dark, light, background), so that sorting orders them by row.
        # Time t falls in row ceil((t - t0)·s), written -((t0 - t)·s // 1)
        # so that an int takes no call; a row at or past height is dropped
        # by the sweep.  The window ends at x_i(k_max), where the cell
        # turns background; with k_max = 0 it is background throughout.
        w = 3 * n
        ends = [-((t0 - t) * s // 1) for t in times[-1]]
        e = min(ends)
        plan = self._code_plan(trace, e)
        if plan is None:
            changes = []
            for i, (column, bits, end) in enumerate(zip(self.time_columns, zip(*states), ends)):
                rows = [-((t0 - t) * s // 1) for t in column]
                changes += _kept(rows, bits, 3 * i, w)
                changes.append(end * w + 3 * i + 2)
            changes.sort()
            return chain(header, _swept_rows(background, changes, slots, 0, height, size))
        steps, r0, joint, rows = plan
        J, d, D = steps

        def row_at(cell, k):  # the row of interval k
            j, q = steps.fold(k)
            return cell[j] + q * D

        # The codes of the states, folded past the orbit's entry where it
        # closes (else by a lasso that never folds).
        codes = tuple(map(_encode, states)) if trace is None else trace.codes
        orbit = Lasso(0, len(codes)) if joint is None else trace.recurrence
        base = orbit.start
        head, tail, owners, starts = [], [], [], []
        for i, (cell, end) in enumerate(zip(rows, ends)):
            key = 3 * i
            # From J on, interval k + d starts D rows below interval k.
            while cell[-1] < r0 + D:
                cell.append(row_at(cell, len(cell)))
            # The intervals that start before R0, swept.
            h = bisect_left(cell, r0)
            head += _kept(cell[: h + 1], [x[i] for x in states[:h]], key, w)
            # The interval that owns row R0, and those that start in rows
            # R0 .. R0 + D - 1 and own a row: from row R0 + rho on, cell i
            # shows interval k.
            owners.append(bisect_right(cell, r0) - 1 - base)
            for k in range(h, bisect_left(cell, r0 + D, h)):
                if cell[k] < cell[k + 1]:
                    starts.append((cell[k] - r0, i, k - base))
            # Those that own a row from E on, swept from the one that owns
            # row E (none where the window ends at E).
            if end > e:
                k = J + (e - cell[J]) // D * d
                while row_at(cell, k + 1) <= e:
                    k += 1
                tail += _kept(
                    [e, *(row_at(cell, j) for j in range(k + 1, k_max + 1))],
                    [x[i] for x in states[k:k_max]], key, w, first=e,
                )
            tail.append(end * w + key + 2)
        head.sort()
        tail.sort()
        # Per run of rows R0 + rho .. from a row where intervals start (or
        # rho = 0): its length, the mask of the cells whose interval goes
        # on and the intervals that start.
        at = {0: []}
        for rho, i, o in starts:
            at.setdefault(rho, []).append((i, o))
        rhos = sorted(at)
        full = (1 << n) - 1
        runs = []
        for count, rho in zip(map(sub, [*rhos[1:], D], rhos), rhos):
            pairs = _cell_masks(at[rho], n)
            runs.append((count, full ^ sum(mask for _o, mask in pairs), pairs))
        code_rows = partial(
            _code_rows, _code_row(n, CELL_PX),
            codes[base : orbit.end], orbit.period, _cell_masks(enumerate(owners), n), runs, d, r0,
        )
        if joint is not None and joint.shift * row_bytes <= _PIXMAP_BYTES and r0 + joint.shift < e:
            body = _held_rows(code_rows(r0 + joint.shift), joint.shift, e - r0)
        else:
            body = _row_chunks(code_rows(e), size)
        return chain(
            header,
            _swept_rows(background[:], head, slots, 0, r0, size),
            body,
            _swept_rows(background, tail, slots, e, height, size),
        )

    def _code_plan(self, trace, e: int) -> tuple | None:
        """(Lasso(J, d, D), R0, joint, rows) for :meth:`raster_chunks`
        where its rows R0 .. e - 1 are built from codes: from interval J
        on, interval k + d starts D rows below interval k; the joint
        recurrence Lasso(J, L, B) of the trace's orbit (None where it is
        open), and per cell the rows of its intervals 0 .. J + d - 1.
        None where the times do not recur, D is not whole or R0 + D > e."""
        steady = self._steady
        s = TIME_SCALE
        if steady is None or steady.shift * s % 1:
            return None
        joint = self._joint(None if trace is None else trace.recurrence)
        steps = Lasso((joint or steady).start, steady.period, int(steady.shift * s))
        t0 = self.extent[0]
        rows = [
            [-((t0 - t) * s // 1) for t in islice(column, steps.end)]
            for column in self.time_columns
        ]
        r0 = max(cell[steps.start] for cell in rows)
        if r0 + steps.shift > e:
            return None
        return steps, r0, joint, rows


def contour_plot(traj: Trajectory, metadata: tuple = (), states=None) -> str:
    """Polyline per cycle k through the points (cell i, x_i(k)), time
    downward.  With CA states given (0/1 per cell), each vertex carries a
    state marker.  A single-cell system degenerates to a column of
    markers."""
    return "".join(AsyncPlots(traj, metadata).contour_chunks(states))


def spacetime_async(run: AsyncRun, metadata: tuple = (), stage: str = "plain") -> str:
    """Memory blocks of an asynchronous run as SVG.

    stage "plain": filled hold intervals only (the finished picture).
    stage "contours": hold intervals with the update contours overlaid.
    Any other stage raises DimensionError.
    """
    if stage not in ("plain", "contours"):
        raise DimensionError(f"unknown stage {stage!r}")
    shared, tails = AsyncPlots(run.trajectory, metadata).spacetime_pair_chunks(run.states)
    return "".join(chain(shared, tails[stage == "contours"]))


def spacetime_async_pixmap(run: AsyncRun, metadata: tuple = ()) -> str:
    """PGM (P2) raster of the memory blocks, exactly point-samplable.

    Pixel row r of cell column c answers: what did cell (c // CELL_PX)
    hold at time t0 + r / TIME_SCALE?  Rows outside a cell's computed
    window stay at the background gray.
    """
    return b"".join(AsyncPlots(run.trajectory, metadata).raster_chunks(run.states)).decode()


def _pgm_header(metadata, width: int, height: int) -> bytes:
    """The P2 header of a width × height pixmap, comment lines included."""
    lines = ["P2", *_comment_lines(metadata, "#"), f"{width} {height}", "255", ""]
    return "\n".join(lines).encode()


def _kept(rows: list, bits, key: int, w: int, first: int = -1) -> list:
    """The changes r·w + key + bit of a cell's hold intervals, where
    interval j owns the rows rows[j] .. rows[j+1] - 1 and shows bits[j].
    A change is kept where its interval owns a row and switches the gray:
    its bit differs from the interval's before, or that one owned no row,
    which may hide a switch.  Before the first interval the cell is
    background (code 2); ``first`` is the row where the interval before
    it started (-1 for none; rows[0] keeps the first change)."""
    return [
        r * w + key + bit
        for r_prev, r, r_end, bit_prev, bit in zip(
            chain((first,), rows), rows, rows[1:], chain((2,), bits), bits
        )
        if r < r_end and (bit != bit_prev or r_prev == r)
    ]


def _cell_masks(cells, n: int) -> list:
    """The (o, mask) pairs of the (cell i, interval o) pairs ``cells``:
    per interval, the mask of its cells, cell 0 the top bit of n."""
    masks = {}
    for i, o in cells:
        masks[o] = masks.get(o, 0) | 1 << (n - 1 - i)
    return list(masks.items())


def _code_row(n: int, px: int):
    """The function from the code of a state of n cells (cell 0 the top
    bit, as ca._encode gives it) to the bytes of its pixmap row: per cell
    px pixels of GRAY0 or GRAY1 by its bit, each followed by a space,
    the last by the newline.  The code is cut into bytes of 8 cells, the last holding
    the n mod 8 cells left (or 8) in its top bits, and a byte's text is
    read from a table of 256: one table for the full bytes and one,
    ending in the newline, for the last.  A row is one join."""
    count = (n + 7) // 8
    pad = 8 * count - n
    one = [(" ".join([str(gray)] * px) + " ").encode() for gray in (GRAY0, GRAY1)]
    two = [a + b for a in one for b in one]
    four = [a + b for a in two for b in two]
    full = [a + b for a in four for b in four]
    # The last byte's cells are its top 8 - pad bits: a full text less
    # pad dark cells and the last space.
    cut = pad * len(one[0]) + 1
    ends = [full[u << pad][:-cut] + b"\n" for u in range(256 >> pad)]
    last = [ends[v >> pad] for v in range(256)]
    tables = [full] * (count - 1) + [last]
    return lambda code: b"".join(map(getitem, tables, (code << pad).to_bytes(count, "big")))


def _code_rows(row, codes, mod: int, first, runs: list, d: int, start: int, stop: int) -> Iterator:
    """(bytes, count) runs of the rows start .. stop - 1 of a raster
    whose rows repeat every D rows with the intervals shifted d on, in
    the q-th repeat interval o showing state code codes[(o + q·d) % mod].
    Row start shows the intervals of ``first``, (o, mask of the cells
    that show it) pairs.  Of each D rows, runs[j] = (count, keep, pairs)
    gives a run of rows from a row where the intervals of ``pairs`` start
    in the cells of their masks and those of ``keep`` go on.  A row's
    code is updated per run, and row(code) is built where it changes."""
    code = 0
    for o, mask in first:
        code |= codes[o % mod] & mask
    prev = text = None
    shift = 0
    r = start
    while True:
        for count, keep, pairs in runs:
            if pairs:
                code &= keep
                for o, mask in pairs:
                    code |= codes[(o + shift) % mod] & mask
            if code != prev:
                prev, text = code, row(code)
            count = min(count, stop - r)
            yield text, count
            r += count
            if r >= stop:
                return
        shift = (shift + d) % mod


def _row_chunks(runs, size: int) -> Iterator[bytes]:
    """The rows of the (bytes, count) runs in chunks of ``size`` rows (the
    last may hold fewer): a chunk is a list of references to a few rows,
    joined once."""
    block = []
    for text, run in runs:
        while len(block) + run >= size:
            take = size - len(block)
            block += [text] * take
            yield b"".join(block)
            block = []
            run -= take
        block += [text] * run
    if block:
        yield b"".join(block)


def _swept_rows(
    row: list, changes, slots: list, start: int, stop: int, size: int
) -> Iterator[bytes]:
    """Rows start..stop-1 as bytes, in chunks of ``size`` rows (the last
    may hold fewer).  ``row`` holds the cells' fragments in effect before
    row start, each ending in its separator, and is updated in place.  A
    change r·len(slots) + k in the sorted list ``changes`` sets the
    (cell, fragment) pair slots[k] from row r on; those before row start
    are skipped, and those from row stop on are not applied.  A row with
    no change repeats the bytes of the row above."""
    return _row_chunks(_swept_runs(row, changes, slots, start, stop), size)


def _swept_runs(row: list, changes, slots: list, start: int, stop: int) -> Iterator:
    """The (bytes, count) runs of :func:`_swept_rows`."""
    m = len(slots)
    text = b"".join(row)
    r = start
    changes = islice(changes, bisect_left(changes, start * m), None)
    for r_next, group in groupby(changes, m.__rfloordiv__):
        if r_next >= stop:
            break
        yield text, r_next - r
        for key in group:
            i, fragment = slots[key % m]
            row[i] = fragment
        text = b"".join(row)
        r = r_next
    yield text, stop - r


def _held_rows(runs, b: int, count: int) -> Iterator[bytes]:
    """``count`` rows that repeat every b rows, from the (bytes, count)
    runs of the first b: their block is joined once and held, and the
    rows are written as copies of it, in chunks of whole blocks that fit
    in _PIXMAP_BYTES, and the first count mod b rows of one more."""
    rows = list(chain.from_iterable(starmap(repeat, runs)))
    block = b"".join(rows)
    q, t = divmod(count, b)
    reps = max(1, _PIXMAP_BYTES // len(block))
    yield from repeat(block * reps, q // reps)
    if q % reps:
        yield block * (q % reps)
    if t:
        yield b"".join(rows[:t])


# -- synchronous space-time ----------------------------------------------------


def spacetime_sync(states, metadata: tuple = ()) -> str:
    """Classical CA diagram: one row of square cells (0/1 each) per step,
    downward."""
    return "".join(spacetime_sync_chunks(states, metadata))


def _orbit_rows(items, orbit: Lasso | None, count: int, row) -> Iterator:
    """row(x) of the first ``count`` states of a run, each given by its
    item x.  Given the orbit's Lasso, the items need run to its end only:
    each row is formed once per orbit state and then repeated."""
    if orbit is None or orbit.end >= count:
        return map(row, islice(items, count))
    return orbit.repeat(list(map(row, items[: orbit.end])), count)


def spacetime_sync_chunks(states, metadata: tuple = (), orbit=None) -> Iterator[str]:
    """The text of :func:`spacetime_sync` in blocks of whole lines: the
    header, rows of about _SVG_BLOCK lines in all, and the closing tag.
    ``orbit`` is the Lasso of the states, or None: the pieces of a row
    are then picked once per orbit state."""
    if not states:
        raise DimensionError("need at least one state")
    n = len(states[0])
    width = 2 * MARGIN + n * CELL_PX
    height = 2 * MARGIN + len(states) * CELL_PX
    rect = [f'<rect x="{MARGIN + i * CELL_PX}" y="' for i in range(n)]
    square = f'" width="{CELL_PX}" height="{CELL_PX}" fill="'
    # Row s at height y is y.join([rect[0], piece of cell 0, ..., piece of
    # cell n - 1]): cell i's piece ends its rect in the colour of its bit
    # and starts the rect of cell i + 1.
    pieces = [
        (f'{square}{COLOR0}"/>\n{after}', f'{square}{COLOR1}"/>\n{after}')
        for after in rect[1:] + [""]
    ]
    first = rect[0]
    parts = _orbit_rows(states, orbit, len(states), lambda s: [first, *map(getitem, pieces, s)])
    ys = range(MARGIN, MARGIN + len(states) * CELL_PX, CELL_PX)
    rows = max(1, _SVG_BLOCK // n)  # per chunk
    blocks = (
        "".join([str(y).join(p) for y, p in zip(ys[k : k + rows], islice(parts, rows))])
        for k in range(0, len(states), rows)
    )
    header = _svg_header(width, height, metadata)
    return chain(_line_blocks(header, len(header)), blocks, ["</svg>\n"])


def spacetime_sync_pixmap(states, metadata: tuple = ()) -> str:
    """One pixel per cell per step (row k = state s(k))."""
    return b"".join(spacetime_sync_pixmap_chunks(states, metadata)).decode()


def spacetime_sync_pixmap_chunks(states, metadata: tuple = (), trace=None) -> Iterator[bytes]:
    """The bytes of :func:`spacetime_sync_pixmap` in chunks of whole
    lines: the header, then as many rows as fit in _PIXMAP_BYTES (at
    least one) per chunk.  A row is built from its state's code
    (:func:`_code_row`).  ``trace`` is the
    :class:`~tropical_ca.ca.SyncOrbit` whose codes are the states', or
    None: the states are then encoded.  Where the trace closes, a row is
    built once per orbit state."""
    if not states:
        raise DimensionError("need at least one state")
    n = len(states[0])
    row = _code_row(n, 1)
    rows = max(1, _PIXMAP_BYTES // (n * _PIXEL_BYTES))  # per chunk
    codes = map(_encode, states) if trace is None else trace.codes
    texts = _orbit_rows(codes, None if trace is None else trace.recurrence, len(states), row)
    blocks = (b"".join(islice(texts, rows)) for _ in range(0, len(states), rows))
    return chain([_pgm_header(metadata, n, len(states))], blocks)


# -- graph exports ---------------------------------------------------------------


def stg_dot(stg: StateTransitionGraph, metadata: tuple = ()) -> str:
    """State transition graph in DOT; attractor states and the arcs along
    each attractor cycle are drawn bold."""
    return "".join(stg_dot_chunks(stg, metadata))


def stg_dot_chunks(stg: StateTransitionGraph, metadata: tuple = ()) -> Iterator[str]:
    """The text of :func:`stg_dot` in chunks of whole lines: the header,
    then the node lines and the arc lines, each chunk at most _STG_BLOCK
    lines (while N <= 20).  Labels come from the graph's two half-width
    tables, the codes in order as hi x lo, so no list of the 2^N labels is
    built: a chunk is the lines of whole high labels h, made by one
    comprehension over its h, lo and the matching slices of the graph."""
    yield "\n".join(["digraph stg {", *_comment_lines(metadata, "  //"), "  rankdir=TB;",
                     '  node [shape=box, fontname="monospace"];', ""])
    hi, lo, k = stg.label_halves
    mask = (1 << k) - 1
    width = len(lo)
    highs = max(1, _STG_BLOCK // width)  # high labels per chunk
    node_style = ('"];\n', '", penwidth=2, color="#c03a2b"];\n')
    arc_style = ('";\n', '" [penwidth=2, color="#c03a2b"];\n')
    on, succ = stg.on_attractor, stg.successors
    # Per chunk, the (first code, label) of each of its high labels.
    blocks = [
        list(zip(range(b * width, len(on), width), hi[b : b + highs]))
        for b in range(0, len(hi), highs)
    ]
    for block in blocks:
        yield "".join([
            f'  "{h}{l}" [label="{h}{l}{node_style[bold]}'
            for code, h in block
            for l, bold in zip(lo, on[code : code + width])
        ])
    for block in blocks:
        yield "".join([
            f'  "{h}{l}" -> "{hi[dst >> k]}{lo[dst & mask]}{arc_style[bold]}'
            for code, h in block
            for l, dst, bold in zip(
                lo, succ[code : code + width], on[code : code + width]
            )
        ])
    yield "}\n"


def build_event_dag(run: AsyncRun):
    """Events and covering pairs of the happened-before order over the
    cycles 0..K, K = min(3, k_max).

    Events: one send per cell per cycle in [0, K] (the instant
    processing completes and the new state is published) and one receive
    per cell per cycle in (0, K] (the instant the last awaited
    message arrives).  Receive times are recomputed from the message
    arrivals, not read off the trajectory.

    Arcs: send_j(k-1) -> receive_i(k) for each arc j -> i (a message,
    labelled with its tau), and receive_i(k) -> send_i(k) (processing,
    labelled with xi_i).

    Returns (events, arcs): events maps id -> (kind, cell, cycle, time);
    arcs is a list of (from_id, to_id, label).
    """
    last = min(3, run.k_max)
    n = run.spec.size
    tau = run.params.tau
    times = run.trajectory.states
    nbhd = run.spec.neighbourhoods()
    events = {}
    arcs = []
    for k in range(last + 1):
        for i in range(n):
            events[f"s{i + 1}_{k}"] = ("send", i, k, times[k][i])
    for k in range(1, last + 1):
        for i in range(n):
            receive = max(times[k - 1][j] + tau[(i, j)] for j in nbhd[i])
            events[f"r{i + 1}_{k}"] = ("receive", i, k, receive)
            for j in nbhd[i]:
                arcs.append(
                    (
                        f"s{j + 1}_{k - 1}",
                        f"r{i + 1}_{k}",
                        f"tau={format_scalar(tau[(i, j)])}",
                    )
                )
            arcs.append(
                (
                    f"r{i + 1}_{k}",
                    f"s{i + 1}_{k}",
                    f"xi={format_scalar(run.params.xi[i])}",
                )
            )
    return events, arcs


def event_dag_dot(run: AsyncRun, metadata: tuple = ()) -> str:
    """DOT rendering of the event DAG with timestamps in the labels."""
    return "".join(event_dag_dot_chunks(run, metadata))


def event_dag_dot_chunks(run: AsyncRun, metadata: tuple = ()) -> Iterator[str]:
    """The text of :func:`event_dag_dot` in chunks of _STG_BLOCK lines;
    the DAG is built, and its lines formed, as the chunks are taken."""
    return _line_blocks(_event_dag_lines(run, metadata), _STG_BLOCK)


def _event_dag_lines(run: AsyncRun, metadata: tuple) -> Iterator[str]:
    events, arcs = build_event_dag(run)
    yield "digraph events {"
    yield from _comment_lines(metadata, "  //")
    yield "  rankdir=TB;"
    for eid in sorted(events):
        kind, cell, cycle, t = events[eid]
        shape = "ellipse" if kind == "send" else "box"
        label = f"{kind} cell {cell + 1} cycle {cycle}\\nt={format_scalar(t)}"
        yield f'  "{eid}" [shape={shape}, label="{label}"];'
    for (a, b, label) in arcs:
        yield f'  "{a}" -> "{b}" [label="{label}"];'
    yield "}"


def critical_graph_dot(P: MaxPlusMatrix, crit: CriticalGraph, metadata: tuple = ()) -> str:
    """Precedence graph of P with the critical subgraph highlighted, the
    arcs j -> i in (j, i) order."""
    return "".join(critical_graph_dot_chunks(P, crit, metadata))


def critical_graph_dot_chunks(
    P: MaxPlusMatrix, crit: CriticalGraph, metadata: tuple = ()
) -> Iterator[str]:
    """The text of :func:`critical_graph_dot` in chunks of _STG_BLOCK
    lines, formed as they are taken.  The sizes are checked on the call."""
    succ = build_graph(P)
    if len(succ) != crit.node_count:
        raise DimensionError("graph and critical graph sizes differ")
    return _line_blocks(_critical_graph_lines(succ, crit, metadata), _STG_BLOCK)


def _critical_graph_lines(succ: list, crit: CriticalGraph, metadata: tuple) -> Iterator[str]:
    critical_nodes = set(crit.nodes)
    critical_arcs = set(crit.arcs)
    yield "digraph precedence {"
    yield from _comment_lines(metadata, "  //")
    for v in range(len(succ)):
        style = ', penwidth=2, color="#c03a2b"' if v in critical_nodes else ""
        yield f'  "{v + 1}" [shape=circle{style}];'
    for j, row in enumerate(succ):
        for i, w in row:
            style = (
                ', penwidth=2, color="#c03a2b"' if (j, i) in critical_arcs else ""
            )
            yield f'  "{j + 1}" -> "{i + 1}" [label="{format_scalar(w)}"{style}];'
    yield "}"
