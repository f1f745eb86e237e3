"""Command line interface.

Commands consume one JSON experiment configuration, whose schema README.md
describes under "Configuration", and write their outputs into a target
directory.  A configuration fully determines every output byte: rerunning
a command with the same config produces an identical tree.

Every command is a selection of output files over one set of stages
(:class:`Stages`).  A stage is computed on first use, at most once per
command, and requires only the config fields it reads; each output file
has exactly one writer (:data:`WRITERS`).  A command's one
:meth:`Stages.write` call forms all its files before it opens one, and
leaves none of them if one cannot be written.

Exit codes: 0 success, 1 a failed check (``verify``'s, or the bijection
check of ``ca``), 2 usage or configuration error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache, cached_property
from itertools import chain, takewhile
from pathlib import Path
from typing import NamedTuple

from ._version import __version__
from . import ca as ca_mod
from . import network as net_mod
from . import render as render_mod
from . import spectral as spectral_mod
from . import trajectory as traj_mod
from .errors import (
    CapExceededError,
    ConfigError,
    NetworkError,
    ScalarError,
    TropicalError,
)
from .schema import Kind, Table, walk
from .semiring import MaxPlusMatrix, load_json, scalar_from_json, unit_vector

MODES = ("int", "rational")

# Most steps an orbit search may take.  2^N steps find every orbit, so the
# cap is exact for N <= 20; beyond that it bounds the time and the memory
# of the visited states.
ORBIT_STEP_CAP = 1 << 20

# Most bytes the rows of spacetime_async.pgm may take: its height times
# its widest row.  The 10-cell ring at k_max 20 000 writes 300 MB.
RASTER_BYTE_CAP = 1 << 30

# Most cell-states, (k_max + 1)·N, that simulate, ca and render may hold
# for a run.  On the 10-cell ring their peak RSS grows by up to 175 B per
# held cell-state (simulate 166 B, ca --schedule async 175 B; CPython
# 3.11, 64-bit), so the cap is about 700 MiB.
HELD_STATE_CAP = 1 << 22


class Experiment(NamedTuple):
    """A fully validated configuration, ready to run."""

    mode: str
    spec: net_mod.NetworkSpec
    params: net_mod.TimingParameters | None
    rule: ca_mod.CARule | None
    s0: tuple | None
    x0: tuple | None
    k_max: int | None
    out: Path
    seed: int | None

    def require(self, *fields):
        for f in fields:
            if getattr(self, f) is None:
                if f == "params":
                    raise ConfigError(
                        "this command needs network timings (xi/tau or a seed)"
                    )
                raise ConfigError(f"this command needs the config field '{f}'")

    def metadata(self) -> tuple:
        """The sorted (key, value) text pairs that every plot embeds."""
        md = {
            "mode": self.mode,
            "N": self.spec.size,
            "rule": self.rule.describe() if self.rule else "none",
        }
        if self.seed is not None:
            md["seed"] = self.seed
        if self.k_max is not None:
            md["k_max"] = self.k_max
        return tuple(sorted((k, str(v)) for k, v in md.items()))


RULE = Table({
    "eca": Kind("an integer 0..255", lambda v: type(v) is int and 0 <= v <= 255),
    "parity": Kind("true", lambda v: v is True),
}, needs=("eca|parity",), excludes=(("eca", "parity"),), literal="parity")
CONFIG = Table({
    "mode": Kind("'int' or 'rational' (which reads decimals such as 0.1 exactly)",
                 MODES.__contains__),
    "network": net_mod.NETWORK,
    "rule": RULE,
    "s0": Kind("a string of 0s and 1s", lambda v: isinstance(v, str) and set(v) <= {"0", "1"}),
    "x0": Kind('"unit" or a list of scalars', lambda v: v == "unit" or isinstance(v, list)),
    "k_max": Kind("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "out": net_mod.PATH,
}, needs=("network",))


def load_experiment(args) -> Experiment:
    """The experiment of the config file args.config.  --mode and --seed
    stand in for the config's mode and network.seed before CONFIG's walk,
    and --out for its out after it."""
    path = Path(args.config)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = load_json(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except OSError as exc:
        raise ConfigError(
            f"cannot read config file {path}: {exc.strerror}"
        ) from None
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(raw, dict):
        if args.mode:
            raw["mode"] = args.mode
        if args.seed is not None and isinstance(raw.get("network"), dict):
            raw["network"] = {**raw["network"], "seed": args.seed}
    walk(raw, CONFIG, "", ConfigError)
    mode, block = raw.get("mode", "int"), raw["network"]
    try:
        if "file" in block:
            spec, params = net_mod.load_network(path.parent / block["file"], mode)
        else:
            spec, params = net_mod.read_network(block, mode)
        if "seed" in block:
            ranges = block["xi_range"], block["tau_range"]
            params = net_mod.random_parameters(spec, block["seed"], *ranges)
    except NetworkError as exc:
        raise ConfigError(f"network: {exc}") from exc

    rule = raw.get("rule")
    if rule is not None:
        parity = rule == "parity" or "parity" in rule
        rule = ca_mod.CARule.parity() if parity else ca_mod.CARule.eca(rule["eca"])
    for key in ("s0", "x0"):
        if raw.get(key, "unit") != "unit" and len(raw[key]) != spec.size:
            raise ConfigError(f"{key} has {len(raw[key])} entries for {spec.size} cells")
    s0 = ca_mod.state_from_string(raw["s0"]) if "s0" in raw else None
    x0 = raw.get("x0")
    if x0 == "unit":
        x0 = unit_vector(spec.size)
    elif x0 is not None:
        if "eps" in x0:
            raise ConfigError(f"x0[{x0.index('eps') + 1}]: start times must be finite, got 'eps'")
        try:
            x0 = tuple(scalar_from_json(v, mode) for v in x0)
        except ScalarError as exc:
            raise ConfigError(f"x0: {exc}") from exc
    out = Path(args.out or raw.get("out", "out"))
    return Experiment(mode, spec, params, rule, s0, x0, raw.get("k_max"), out, block.get("seed"))


# Bytes buffered per output file.
_WRITE_BUFFER = 1 << 18


def _encoded(chunk) -> bytes:
    return chunk if isinstance(chunk, bytes) else chunk.encode()


def _write_chunks(out_dir: Path, files: dict, shared=()) -> None:
    """Write each file out_dir/name of ``files`` (name -> chunks of text
    or of UTF-8 bytes): the ``shared`` chunks, to every file as they come,
    then the file's own.  Each text chunk is encoded once, however many
    files take it, and each file has a buffer of _WRITE_BUFFER bytes, so
    that small chunks leave in large writes.  A chunk iterator that
    raises leaves none of the files behind, and so does a file that
    cannot be opened or written (at a write, or at the flush when it is
    closed), which is a ConfigError naming it."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"out: cannot make the directory {out_dir}: {exc.strerror}"
        ) from None
    paths = [out_dir / name for name in files]
    handles = []
    at = out_dir  # the file being opened or written
    try:
        for at in paths:
            handles.append(open(at, "wb", buffering=_WRITE_BUFFER))
        for chunk in map(_encoded, shared):
            for at, fh in zip(paths, handles):
                fh.write(chunk)
        for at, fh, chunks in zip(paths, handles, files.values()):
            with fh:
                fh.writelines(map(_encoded, chunks))
    except BaseException as exc:
        for fh, path in zip(handles, paths):
            try:
                fh.close()  # flushes, so a full disk raises here again
            except OSError:
                pass
            path.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"out: cannot write {at}: {exc.strerror}") from None
        raise


def _write(out_dir: Path, name: str, text: str) -> None:
    _write_chunks(out_dir, {name: (text,)})


class Stages:
    """The quantities of one experiment, each computed on first use.

    ``fault_cell`` (0-based) makes the event simulation fire that cell
    early, the negative control of ``verify``.
    """

    def __init__(self, exp: Experiment, fault_cell: int | None = None):
        self.exp = exp
        self.fault_cell = fault_cell
        self.metadata = exp.metadata()

    def write(self, *names) -> None:
        """Write the named files, a tuple of names being one writer's, one
        writer at a time.  Every file's content is formed, and so every
        stage it reads has run, before the first file is opened.  A writer
        that fails, or is interrupted, leaves no file of the call and no
        directory that it made: its own files go in _write_chunks, the
        earlier writers' files here, and then each level of --out that was
        missing before the call, deepest first, while it is empty."""
        out = self.exp.out
        made = list(takewhile(lambda d: not d.exists(), (out, *out.parents)))
        contents, written = {}, []
        try:
            for name in names:
                contents[name] = WRITERS[name](self)
            for name, content in contents.items():
                if isinstance(content, str):
                    _write(out, name, content)
                elif isinstance(name, tuple):
                    shared, tails = content
                    _write_chunks(out, dict(zip(name, tails)), shared)
                else:
                    _write_chunks(out, {name: content})
                written += name if isinstance(name, tuple) else [name]
        except BaseException as exc:
            for done in written:
                (out / done).unlink(missing_ok=True)
            for level in made:
                if level.is_dir() and not any(level.iterdir()):
                    level.rmdir()
            # Python refuses to print an int past its digit limit.
            if not (isinstance(exc, ValueError) and "integer string conversion" in str(exc)):
                raise
            first = name[0] if isinstance(name, tuple) else name
            raise TropicalError(
                f"cannot write {out / first}: an exact value in it "
                f"has more than {sys.get_int_max_str_digits()} digits"
            ) from None

    @cached_property
    def p(self) -> MaxPlusMatrix:
        self.exp.require("params")
        return net_mod.build_p(self.exp.spec, self.exp.params)

    @cached_property
    def summary(self) -> spectral_mod.SpectralSummary:
        return spectral_mod.analyze(self.p)

    def held_k_max(self) -> int:
        """k_max, for a stage that holds a run of k_max + 1 states: a run
        of more than HELD_STATE_CAP cell-states is refused before any is
        held.  ``verify`` holds one state of each run, and no run."""
        exp = self.exp
        held = (exp.k_max + 1) * exp.spec.size
        if held > HELD_STATE_CAP:
            raise CapExceededError(
                f"a run of {exp.k_max + 1} states of {exp.spec.size} cells would hold "
                f"{held} cell-states, over the cap of {HELD_STATE_CAP}; lower k_max"
            )
        return exp.k_max

    @cached_property
    def trajectory(self) -> traj_mod.Trajectory:
        self.exp.require("x0", "k_max")
        return traj_mod.iterate(self.p, self.exp.x0, self.held_k_max())

    @cached_property
    def regime(self) -> traj_mod.RegimeReport:
        """Read from the trajectory when the command built it, else
        stepped in the normalized frame from x(0) alone (``verify`` holds
        no trajectory); the report is the same."""
        if "trajectory" in vars(self):
            traj = self.trajectory
        else:
            self.exp.require("x0")
            traj = traj_mod.iterate(self.p, self.exp.x0, 0)
        return traj_mod.detect_regime(traj, self.summary)

    @cached_property
    def sync_trace(self) -> ca_mod.SyncOrbit:
        """The orbit of s0 traced for at most k_max steps, open where it
        does not close by then."""
        exp = self.exp
        exp.require("rule", "s0", "k_max")
        return ca_mod.trace_orbit(exp.rule, exp.spec, exp.s0, self.held_k_max())

    @cached_property
    def orbit(self) -> ca_mod.SyncOrbit:
        """The orbit that ``ca`` reports, searched for at most
        min(2^N, ORBIT_STEP_CAP) steps: the trace, where it closed within
        that cap, else a search of its own from s0, so that an orbit
        longer than the cap fails at the cap."""
        exp = self.exp
        cap = min(1 << exp.spec.size, ORBIT_STEP_CAP)
        trace = self.sync_trace
        if trace.recurrence and trace.recurrence.end <= cap + 1:
            return trace
        return ca_mod.sync_orbit(exp.rule, exp.spec, exp.s0, cap)

    @cached_property
    def sync_states(self) -> tuple:
        """s(0..k_max): the trace's codes, each decoded once, and the
        periodic states repeated."""
        return self.sync_trace.states_through(self.exp.k_max)

    @cached_property
    def run(self) -> ca_mod.AsyncRun:
        """The async run: the trajectory's update times carrying the
        synchronous states, cycle for cycle."""
        exp = self.exp
        exp.require("rule", "s0", "k_max", "x0", "params")
        return ca_mod.AsyncRun(
            exp.rule, exp.spec, exp.params, self.trajectory, self.sync_states
        )

    @cached_property
    def async_plots(self) -> render_mod.AsyncPlots:
        """The layout of the trajectory, shared by the contour plot and the
        four plots of the async run."""
        return render_mod.AsyncPlots(self.trajectory, self.metadata)

    @cached_property
    def raster_size(self) -> tuple:
        """(height, widest row in bytes) of spacetime_async.pgm; a raster
        that may pass RASTER_BYTE_CAP is refused."""
        height, row = self.async_plots.raster_size()
        if height * row > RASTER_BYTE_CAP:
            raise CapExceededError(
                f"{self.exp.out / 'spacetime_async.pgm'} would take up to "
                f"{height * row} bytes ({height} rows of up to {row}), over the "
                f"cap of {RASTER_BYTE_CAP}; lower k_max"
            )
        return height, row

    @cached_property
    def bijection_mismatch(self) -> ca_mod.Mismatch | None:
        """``ca``'s check: the first cycle and cell where the event-level
        states differ from the synchronous ones, or None.  The states need
        no event time, and s(0..k_max) is already held for the plots.

        The pass stops at cycle K = min(k_max, entry + period) of the
        orbit.  A fault-free event state is a function of the one before
        it, so where the runs agree up to K, the event run is back at
        s(entry) at K and repeats from there as the orbit does: a first
        mismatch after K would repeat one a period earlier."""
        exp = self.exp
        exp.require("rule", "s0", "k_max")
        last = min(exp.k_max, self.orbit.recurrence.end)
        states = ca_mod.event_states(exp.rule, exp.spec, exp.s0, last)
        return ca_mod.first_mismatch("bijection", self.sync_states[: last + 1], states)

    @cached_property
    def mismatches(self) -> dict:
        """``verify``'s per-cycle checks, name -> first Mismatch or None,
        each a scan that holds one state of each run: the event-level
        states against the compiled synchronous step, and the event-level
        times against P's arcs stepped from x(0) to cycle min(k_max, k* +
        rho).  Both time maps commute with adding one constant to every
        entry (the fault cell's min too), and x(k + rho) = mu ⊗ x(k) for
        k >= k*, so times equal through k* + rho are equal for good."""
        exp = self.exp
        exp.require("rule", "s0", "x0", "k_max", "params")
        cell = self.fault_cell
        bijection = ca_mod.bijection_mismatch(
            exp.rule, exp.spec, exp.params, exp.s0, exp.x0, exp.k_max, cell
        )
        last = min(exp.k_max, self.regime.k_star + self.regime.rho)
        return {
            "bijection": bijection,
            "event_times_match_matrix": ca_mod.first_mismatch(
                "event_times_match_matrix",
                traj_mod.iter_states(self.p, exp.x0, last),
                ca_mod.event_times(exp.spec, exp.params, exp.x0, last, cell),
            ),
        }

    def contour_mismatch(self, name: str) -> ca_mod.Mismatch | None:
        """The first contour of the check ``regime`` (the regime's
        contours, m = 0..rho - 1) or ``eigen_equation`` (the eigenbasis,
        j = 0, 1, ...) and its first cell where P ⊗ c ≠ lambda ⊗ c′, or
        None."""
        summary = self.summary
        if name == "regime":
            cycles, at = [self.regime.contours], "contour m"
        else:
            cycles, at = [(v,) for v in summary.eigenbasis], "eigenvector j"
        found = traj_mod.cyclic_mismatch(self.p, summary.eigenvalue, cycles)
        return None if found is None else ca_mod.Mismatch(name, *found, at)

    @cached_property
    def checks(self) -> dict:
        return {
            **{name: m is None for name, m in self.mismatches.items()},
            "regime": traj_mod.verify_regime(self.regime, self.p, self.summary),
            "eigen_equation": self.contour_mismatch("eigen_equation") is None,
        }

    @cached_property
    def stg(self) -> ca_mod.StateTransitionGraph:
        self.exp.require("rule")
        return ca_mod.build_stg(self.exp.rule, self.exp.spec)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# The two space-time SVGs open with the same lines, formatted once for both.
SPACETIME_SVGS = ("spacetime_async.svg", "spacetime_async_contours.svg")

# File name -> text of that file, from the stages: a str, or an iterator
# of text or bytes chunks streamed to the file; an entry reads its stages
# when called.  A tuple of names maps to (shared chunks, one tail of
# chunks per name): each file is the shared text followed by its tail.
WRITERS = {
    "spectral.json": lambda st: _json(st.summary.to_json_dict()),
    "critical_graph.dot": lambda st: render_mod.critical_graph_dot_chunks(
        st.p, st.summary.critical, st.metadata
    ),
    "trajectory.csv": lambda st: traj_mod.csv_chunks(
        st.trajectory, st.summary.eigenvalue
    ),
    "regime.json": lambda st: _json(st.regime.to_json_dict()),
    "contour_plot.svg": lambda st: st.async_plots.contour_chunks(),
    "sync_orbit.json": lambda st: st.orbit.json_chunks(),
    "spacetime_sync.svg": lambda st: render_mod.spacetime_sync_chunks(
        st.sync_states, st.metadata, st.sync_trace.recurrence
    ),
    "spacetime_sync.pgm": lambda st: render_mod.spacetime_sync_pixmap_chunks(
        st.sync_states, st.metadata, st.sync_trace
    ),
    "async_contours.svg": lambda st: st.async_plots.contour_chunks(st.run.states),
    SPACETIME_SVGS: lambda st: st.async_plots.spacetime_pair_chunks(st.run.states),
    # The raster's row changes are collected only as its chunks are taken.
    "spacetime_async.pgm": lambda st: st.raster_size and chain.from_iterable(
        map(st.async_plots.raster_chunks, [st.run.states], [st.sync_trace])
    ),
    "event_dag.dot": lambda st: render_mod.event_dag_dot_chunks(st.run, st.metadata),
    "attractor_census.json": lambda st: ca_mod.attractor_census_chunks(st.stg),
    "stg.dot": lambda st: render_mod.stg_dot_chunks(st.stg, st.metadata),
    "verification.json": lambda st: _json(
        {"checks": st.checks, "all_passed": all(st.checks.values())}
    ),
}

SYNC_PLOTS = ("spacetime_sync.svg", "spacetime_sync.pgm")
ASYNC_PLOTS = ("async_contours.svg", SPACETIME_SVGS, "spacetime_async.pgm")


def cmd_analyze(st: Stages) -> int:
    st.write("spectral.json", "critical_graph.dot")
    summary = st.summary
    print(
        f"lambda = {summary.eigenvalue}, sigma = {summary.sigma}, "
        f"{len(summary.critical.nodes)} critical nodes"
    )
    return 0


def cmd_simulate(st: Stages) -> int:
    st.write("trajectory.csv", "regime.json", "contour_plot.svg")
    report = st.regime
    print(
        f"k_star = {report.k_star}, rho = {report.rho}, mu = {report.mu}, "
        f"cycletime = {traj_mod.cycletime(report)}"
    )
    return 0


def cmd_ca(st: Stages, schedule: str) -> int:
    sync, timed = schedule != "async", schedule != "sync"
    st.write(*(("sync_orbit.json", *SYNC_PLOTS) if sync else ()), *(ASYNC_PLOTS if timed else ()))
    if sync:
        print(f"sync orbit: entry {st.orbit.entry_time}, period {st.orbit.period}")
    if timed:
        print(f"async run: {st.exp.k_max} cycles")
    if sync and timed:
        mismatch = st.bijection_mismatch
        print(f"bijection sync/async: {'FAIL' if mismatch else 'PASS'}")
        if mismatch:
            print(mismatch.describe())
            return 1
    return 0


def cmd_stg(st: Stages) -> int:
    st.write("attractor_census.json", "stg.dot")
    stg = st.stg
    fixed = stg.fixed_point_count()
    print(
        f"{fixed} fixed points, {len(stg.attractor_offsets) - 1 - fixed} longer cycles, "
        f"{stg.transient_count()} transient states"
    )
    return 0


def cmd_verify(st: Stages) -> int:
    st.write("verification.json")
    for name, ok in sorted(st.checks.items()):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            mismatch = st.mismatches.get(name) or st.contour_mismatch(name)
            if mismatch:
                print(mismatch.describe())
    return 0 if all(st.checks.values()) else 1


def cmd_render(st: Stages) -> int:
    st.write("contour_plot.svg", *ASYNC_PLOTS, *SYNC_PLOTS, "event_dag.dot",
             "critical_graph.dot", *(("stg.dot",) if st.exp.spec.size <= 12 else ()))
    print(f"rendered into {st.exp.out}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: parsing
    leaves it unchanged, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="tropical-ca",
        description="Max-plus timing analysis and simulation of asynchronous CA",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--mode", help="arithmetic mode override: int or rational")
        p.add_argument("--seed", type=int, help="seed override for generated networks")

    common(sub.add_parser("analyze", help="spectral summary of the timing matrix"))
    common(sub.add_parser("simulate", help="trajectory and periodic regime"))
    p_ca = sub.add_parser("ca", help="run the cellular automaton")
    common(p_ca)
    p_ca.add_argument(
        "--schedule",
        choices=("sync", "async", "both"),
        default="both",
        help="which update discipline to run",
    )
    common(sub.add_parser("stg", help="full state transition graph"))
    p_verify = sub.add_parser("verify", help="recheck the core invariants")
    common(p_verify)
    p_verify.add_argument(
        "--inject-early-update",
        type=int,
        metavar="CELL",
        default=None,
        help=argparse.SUPPRESS,
    )
    common(sub.add_parser("render", help="write every plot for the experiment"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's per-cycle tables form no reference cycles, so the cyclic
    # collector would walk them and free nothing: it is paused for the
    # command, and the caller's setting comes back after it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        exp = load_experiment(args)
        fault_cell = getattr(args, "inject_early_update", None)
        st = Stages(exp, None if fault_cell is None else fault_cell - 1)
        if args.command == "ca":
            return cmd_ca(st, args.schedule)
        return {
            "analyze": cmd_analyze,
            "simulate": cmd_simulate,
            "stg": cmd_stg,
            "verify": cmd_verify,
            "render": cmd_render,
        }[args.command](st)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TropicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
