"""Spans recorded from outside the program.

``Tracer.installed()`` wraps the public functions of each ``tropical_ca``
module in place, on every module that binds the name (``ca`` binds
``build_p`` and ``iterate`` by ``from ... import``, ``trajectory`` binds
``analyze``), and puts the originals back on exit.  Nothing under ``src/``
knows it is traced.  Per-cell calls such as ``CARule.apply`` are left
alone: a wrapper there would cost more than the work it measures.

A span is ``[name, start, end, parent id, pass id, counts]``.  Counts are
computed from operand shapes or read from return values, never timed, so
they must repeat exactly from pass to pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

from tropical_ca import ca, cli, network, render, spectral, trajectory
from tropical_ca.semiring import MaxPlusMatrix

LAYERS = ("semiring", "network", "spectral", "trajectory", "ca", "render", "cli")
COMMANDS = ("analyze", "simulate", "verify", "ca", "stg", "render")


def _matmul_ops(args, result):
    a, b = args
    if isinstance(b, MaxPlusMatrix):
        return {"ops": a.rows * b.cols * a.cols}
    return None  # a vector: the nested apply span counts it


def _bytes(args, result):
    return {"bytes": len(result)}


# (owner, attribute, span name, counter).  Module functions are patched on
# every tropical_ca module that binds the same object; methods on the class.
TARGETS = [
    (MaxPlusMatrix, "__matmul__", "semiring.matmul", _matmul_ops),
    (MaxPlusMatrix, "apply", "semiring.apply",
     lambda args, r: {"ops": args[0].rows * args[0].cols}),
    (MaxPlusMatrix, "star", "semiring.star", None),
    (MaxPlusMatrix, "has_positive_circuit", "semiring.has_positive_circuit", None),
    (spectral, "analyze", "spectral.analyze", None),
    (spectral, "max_cycle_mean", "spectral.max_cycle_mean", None),
    (spectral, "build_graph", "spectral.build_graph", None),
    (network, "build_p", "network.build_p", None),
    (network, "random_parameters", "network.random_parameters", None),
    (trajectory, "iterate", "trajectory.iterate",
     lambda args, r: {"steps": len(r.states) - 1}),
    (trajectory, "detect_regime", "trajectory.detect_regime",
     lambda args, r: {"steps": r.k_star + r.rho}),
    (trajectory, "verify_regime", "trajectory.verify_regime", None),
    (trajectory, "write_trajectory_csv", "trajectory.write_trajectory_csv", None),
    (ca, "sync_step", "ca.sync_step", None),
    (ca, "sync_orbit", "ca.sync_orbit", lambda args, r: {"steps": len(r.states)}),
    (ca, "build_stg", "ca.build_stg", lambda args, r: {"states": len(r.successors)}),
    (ca, "attractor_census", "ca.attractor_census", None),
    (ca, "async_run", "ca.async_run", None),
    (ca, "event_simulation", "ca.event_simulation", None),
    (ca, "verify_bijection", "ca.verify_bijection", None),
    (render, "contour_plot", "render.contour_plot", _bytes),
    (render, "spacetime_async", "render.spacetime_async", _bytes),
    (render, "spacetime_async_pixmap", "render.spacetime_async_pixmap", _bytes),
    (render, "spacetime_sync", "render.spacetime_sync", _bytes),
    (render, "spacetime_sync_pixmap", "render.spacetime_sync_pixmap", _bytes),
    (render, "stg_dot", "render.stg_dot", _bytes),
    (render, "event_dag_dot", "render.event_dag_dot", _bytes),
    (render, "critical_graph_dot", "render.critical_graph_dot", _bytes),
    (cli, "load_experiment", "cli.load_experiment", None),
    (cli, "_write", "cli.write", lambda args, r: {"bytes": len(args[2])}),
]


def layer_of(name: str) -> str:
    """Layer a span belongs to; the benchmark's own ``cmd.*`` spans around
    ``cli.main`` hold the CLI's argument and config handling."""
    head = name.split(".", 1)[0]
    return "cli" if head == "cmd" else head


class Tracer:
    """In-memory span recorder; write ``spans`` out once the run ends."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._pass = None

    def _open(self, name):
        stack = self._stack
        rec = [name, time.perf_counter(), None, stack[-1] if stack else None,
               self._pass, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        self._stack.pop()
        rec[2] = time.perf_counter()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                rec[5] = counter(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def region(self, name):
        """A span opened by the benchmark itself, e.g. one CLI command."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def installed(self, pass_id):
        """Record spans of pass ``pass_id`` while the block runs."""
        modules = [m for n, m in sys.modules.items() if n.startswith("tropical_ca")]
        undo = []
        try:
            for owner, attr, name, counter in TARGETS:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counter)
                holders = [owner] if isinstance(owner, type) else [
                    m for m in modules if getattr(m, attr, None) is original
                ]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
            self._pass = pass_id
            yield self
        finally:
            self._pass = None
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)


def aggregate(spans, pass_id) -> dict:
    """Per span name: calls, inclusive seconds ``s``, ``self_s`` and summed
    counts, for one pass.  Inclusive time skips spans nested inside a span
    of the same name so recursion is not counted twice."""
    mine = {i: sp for i, sp in enumerate(spans) if sp[4] == pass_id}
    child_time = defaultdict(float)
    for sp in mine.values():
        if sp[3] is not None:
            child_time[sp[3]] += sp[2] - sp[1]
    out = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, parent, _p, counts) in mine.items():
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            entry["s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] += value
    return {name: dict(entry) for name, entry in out.items()}


def counts_of(agg: dict) -> dict:
    """The timing-free part of an aggregate, which must repeat exactly."""
    return {
        name: {k: v for k, v in entry.items() if k not in ("s", "self_s")}
        for name, entry in agg.items()
    }


# -- per-layer metrics ---------------------------------------------------------------

# (span, key) pairs reported by the traced run; a span that never ran
# reports 0.  Keys: s = inclusive seconds, self_s = seconds minus child
# spans, calls, and counts computed from shapes or return values.
SPAN_METRICS = [
    ("semiring.matmul", ("self_s", "calls", "ops")),
    ("semiring.star", ("s",)),
    ("semiring.has_positive_circuit", ("s",)),
    ("semiring.apply", ("self_s", "calls", "ops")),
    ("spectral.analyze", ("s", "self_s", "calls")),
    ("spectral.max_cycle_mean", ("s",)),
    ("network.build_p", ("s",)),
    ("network.random_parameters", ("s",)),
    ("trajectory.iterate", ("s",)),
    ("trajectory.detect_regime", ("s", "steps")),
    ("trajectory.verify_regime", ("s",)),
    ("ca.sync_step", ("self_s", "calls")),
    ("ca.sync_orbit", ("s", "steps")),
    ("ca.build_stg", ("s", "states")),
    ("ca.attractor_census", ("s", "calls")),
    ("ca.event_simulation", ("s",)),
    ("ca.verify_bijection", ("self_s",)),
    ("ca.async_run", ("self_s",)),
    ("render.spacetime_async_pixmap", ("s", "bytes")),
    ("render.spacetime_async", ("s",)),
    ("render.contour_plot", ("s",)),
    ("render.stg_dot", ("s",)),
    ("cli.write", ("s", "bytes")),
    ("cli.load_experiment", ("s",)),
] + [(f"cmd.{c}", ("s",)) for c in COMMANDS]
KEY_UNITS = {"s": "s", "self_s": "s", "calls": "count", "ops": "ops",
             "steps": "steps", "states": "states", "bytes": "B"}
RENDER_NAMED = ("render.spacetime_async_pixmap", "render.spacetime_async",
                "render.contour_plot", "render.stg_dot")


def per_layer_units() -> dict:
    """Name -> unit of every metric the traced run prints."""
    units = {f"{span}.{key}": KEY_UNITS[key]
             for span, keys in SPAN_METRICS for key in keys}
    units.update({"render.other.s": "s", "render.bytes": "B"})
    for layer in LAYERS:
        units.update({f"layer.{layer}.self_s": "s",
                      f"layer.{layer}.spans": "count",
                      f"layer.{layer}.share": "1"})
    units.update({"trace.wall_s": "s", "trace.overhead_ratio": "1",
                  "trace.focus_share": "1"})
    return units


def focus_share(workload: str, agg: dict, layer_self: dict, wall: float) -> float:
    """Share of traced wall time in the layers the workload is named for."""
    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    if workload == "spectral":
        busy = get("semiring.matmul", "self_s")
    elif workload == "orbit":
        busy = get("ca.sync_step", "self_s") + get("ca.build_stg", "s")
    elif workload == "timed_run":
        busy = (get("network.build_p", "s") + get("trajectory.iterate", "s")
                + layer_self["ca"])
    else:
        busy = layer_self["render"] + get("cli.write", "s")
    return busy / wall


def pass_metrics(workload, agg, wall) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {f"{span}.{key}": agg.get(span, {}).get(key, 0)
         for span, keys in SPAN_METRICS for key in keys}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_spans = dict.fromkeys(LAYERS, 0)
    for name, entry in agg.items():
        layer_self[layer_of(name)] += entry["self_s"]
        layer_spans[layer_of(name)] += entry["calls"]
    m["render.other.s"] = layer_self["render"] - sum(
        agg.get(name, {}).get("s", 0) for name in RENDER_NAMED
    )
    m["render.bytes"] = sum(e.get("bytes", 0) for n, e in agg.items()
                            if n.startswith("render."))
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
        m[f"layer.{layer}.spans"] = layer_spans[layer]
        m[f"layer.{layer}.share"] = layer_self[layer] / wall
    m["trace.wall_s"] = wall
    m["trace.focus_share"] = focus_share(workload, agg, layer_self, wall)
    return m
