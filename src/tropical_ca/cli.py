"""Command line interface.

Commands consume one JSON experiment configuration and write their outputs
into a target directory.  A configuration fully determines every output
byte: rerunning a command with the same config produces an identical tree.

Exit codes: 0 success, 1 a verification found a violated invariant,
2 usage or configuration error.  The environment variable TROPICAL_CA_LOG
sets the log level (DEBUG, INFO, WARNING, ...).

Configuration schema (all indices 1-based, as in the file formats):

    {
      "mode": "int" | "rational" | "float",      default "int"
      "network": {"file": "net.json"}
                 | {"N": 10, "topology": {"regular": {"n": 3}}
                            | {"arcs": [[j, i], ...]},
                    "xi": [...], "tau": [[j, i, value], ...]}
                 | {"N": 10, "topology": {...}, "seed": 42,
                    "xi_range": [1, 30], "tau_range": [1, 10]},
      "rule": {"eca": 150} | "parity",
      "s0": "0000100000",
      "x0": "unit" | [scalar, ...],
      "k_max": 100,
      "out": "output-directory"                  optional, --out overrides
    }
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from ._version import __version__
from . import ca as ca_mod
from . import network as net_mod
from . import render as render_mod
from . import spectral as spectral_mod
from . import trajectory as traj_mod
from .errors import ConfigError, TropicalError, VerificationError
from .semiring import scalar_from_json, unit_vector, vec_scale

log = logging.getLogger("tropical_ca")

MODES = ("int", "rational", "float")


@dataclass
class Experiment:
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
    raw: dict

    def require(self, *fields):
        for f in fields:
            if getattr(self, f) is None:
                raise ConfigError(f"this command needs the config field '{f}'")

    def metadata(self) -> dict:
        md = {
            "mode": self.mode,
            "N": self.spec.size,
            "rule": self.rule.describe() if self.rule else "none",
        }
        if self.seed is not None:
            md["seed"] = self.seed
        if self.k_max is not None:
            md["k_max"] = self.k_max
        return md


def _parse_network(block, mode, seed_override, base_dir: Path):
    if not isinstance(block, dict):
        raise ConfigError("network: must be an object")
    if "file" in block:
        path = Path(block["file"])
        if not path.is_absolute():
            path = base_dir / path
        if seed_override is not None:
            raise ConfigError("--seed only applies to generated networks")
        try:
            return (*net_mod.load_network(path, mode), None)
        except FileNotFoundError:
            raise ConfigError(f"network.file: {path} does not exist") from None

    size = block.get("N")
    if not isinstance(size, int) or size < 1:
        raise ConfigError("network.N: must be a positive integer")
    topo = block.get("topology")
    if not isinstance(topo, dict):
        raise ConfigError("network.topology: must be an object")
    if "regular" in topo:
        n = topo["regular"].get("n") if isinstance(topo["regular"], dict) else None
        if not isinstance(n, int):
            raise ConfigError("network.topology.regular.n: must be an integer")
        spec = net_mod.regular_ring(size, n)
    elif "arcs" in topo:
        try:
            spec = net_mod.explicit_network(
                size, [(j - 1, i - 1) for (j, i) in topo["arcs"]]
            )
        except (TypeError, ValueError):
            raise ConfigError(
                "network.topology.arcs: must be a list of [j, i] pairs"
            ) from None
    else:
        raise ConfigError("network.topology: needs 'regular' or 'arcs'")

    has_explicit = "xi" in block or "tau" in block or "tau_matrix" in block
    has_generator = "seed" in block or seed_override is not None
    if has_explicit and has_generator:
        raise ConfigError("network: give either explicit xi/tau or a seed, not both")
    if has_explicit:
        if seed_override is not None:
            raise ConfigError("--seed only applies to generated networks")
        body = dict(block)
        body.pop("seed", None)
        try:
            spec2, params = net_mod.network_from_json_dict(body, mode)
        except TropicalError as exc:
            raise ConfigError(f"network: {exc}") from exc
        return spec2, params, None
    if has_generator:
        seed = seed_override if seed_override is not None else block.get("seed")
        if not isinstance(seed, int):
            raise ConfigError("network.seed: must be an integer")
        xi_range = block.get("xi_range")
        tau_range = block.get("tau_range")
        for name, rng in (("xi_range", xi_range), ("tau_range", tau_range)):
            if (
                not isinstance(rng, (list, tuple))
                or len(rng) != 2
                or not all(isinstance(v, int) for v in rng)
            ):
                raise ConfigError(f"network.{name}: must be [lo, hi] integers")
        try:
            params = net_mod.random_parameters(
                spec, seed, tuple(xi_range), tuple(tau_range)
            )
        except TropicalError as exc:
            raise ConfigError(f"network: {exc}") from exc
        return spec, params, seed
    return spec, None, None


def load_experiment(args) -> Experiment:
    path = Path(args.config)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    mode = args.mode or raw.get("mode", "int")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    if "network" not in raw:
        raise ConfigError("config needs a 'network' block")
    spec, params, seed = _parse_network(
        raw["network"], mode, args.seed, path.parent
    )

    rule = None
    if "rule" in raw:
        blk = raw["rule"]
        if blk == "parity" or blk == {"parity": True}:
            rule = ca_mod.CARule.parity()
        elif isinstance(blk, dict) and "eca" in blk:
            if not isinstance(blk["eca"], int):
                raise ConfigError("rule.eca: must be an integer 0..255")
            try:
                rule = ca_mod.CARule.eca(blk["eca"])
            except TropicalError as exc:
                raise ConfigError(f"rule: {exc}") from exc
        else:
            raise ConfigError("rule: must be \"parity\" or {\"eca\": n}")

    s0 = None
    if "s0" in raw:
        if not isinstance(raw["s0"], str):
            raise ConfigError("s0: must be a 0/1 string")
        try:
            s0 = ca_mod.state_from_string(raw["s0"])
        except TropicalError as exc:
            raise ConfigError(f"s0: {exc}") from exc
        if len(s0) != spec.size:
            raise ConfigError(
                f"s0 has {len(s0)} cells but the network has {spec.size}"
            )

    x0 = None
    if "x0" in raw:
        blk = raw["x0"]
        if blk == "unit":
            x0 = unit_vector(spec.size)
        elif isinstance(blk, list):
            if len(blk) != spec.size:
                raise ConfigError(
                    f"x0 has {len(blk)} entries but the network has {spec.size}"
                )
            try:
                x0 = tuple(scalar_from_json(v, mode) for v in blk)
            except ValueError as exc:
                raise ConfigError(f"x0: {exc}") from exc
            for i, v in enumerate(x0):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(
                        f"x0[{i + 1}]: start times must be finite, got {blk[i]!r}"
                    )
        else:
            raise ConfigError("x0: must be \"unit\" or a list of scalars")

    k_max = None
    if "k_max" in raw:
        if not isinstance(raw["k_max"], int) or raw["k_max"] < 0:
            raise ConfigError("k_max: must be a non-negative integer")
        k_max = raw["k_max"]

    out = Path(args.out) if args.out else Path(raw.get("out", "out"))
    return Experiment(mode, spec, params, rule, s0, x0, k_max, out, seed, raw)


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")
    log.info("wrote %s", out_dir / name)


def _write_json(out_dir: Path, name: str, obj) -> None:
    _write(out_dir, name, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _plotspec(exp: Experiment) -> render_mod.PlotSpec:
    return render_mod.PlotSpec().with_metadata(exp.metadata())


def _build_p(exp: Experiment):
    exp.require("params")
    try:
        return net_mod.build_p(exp.spec, exp.params).matrix
    except TropicalError as exc:
        raise ConfigError(f"network timing: {exc}") from exc


def cmd_analyze(exp: Experiment) -> int:
    P = _build_p(exp)
    summary = spectral_mod.analyze(P)
    _write_json(exp.out, "spectral.json", summary.to_json_dict())
    graph = spectral_mod.build_graph(P)
    _write(
        exp.out,
        "critical_graph.dot",
        render_mod.critical_graph_dot(graph, summary.critical, _plotspec(exp)),
    )
    print(
        f"lambda = {summary.eigenvalue}, sigma = {summary.sigma}, "
        f"{len(summary.critical.nodes)} critical nodes"
    )
    return 0


def cmd_simulate(exp: Experiment) -> int:
    exp.require("x0", "k_max")
    P = _build_p(exp)
    summary = spectral_mod.analyze(P)
    traj = traj_mod.iterate(P, exp.x0, exp.k_max)
    report = traj_mod.detect_regime(traj, summary)
    traj_mod.write_trajectory_csv(
        traj, _prepare(exp.out) / "trajectory.csv", summary.eigenvalue
    )
    _write_json(exp.out, "regime.json", report.to_json_dict())
    _write(exp.out, "contour_plot.svg", render_mod.contour_plot(traj, _plotspec(exp)))
    print(
        f"k_star = {report.k_star}, rho = {report.rho}, mu = {report.mu}, "
        f"cycletime = {traj_mod.cycletime(report)}"
    )
    return 0


def _prepare(out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_ca(exp: Experiment, schedule: str) -> int:
    exp.require("rule", "s0", "k_max")
    ps = _plotspec(exp)
    code = 0
    if schedule in ("sync", "both"):
        orbit = ca_mod.sync_orbit(exp.rule, exp.spec, exp.s0, 1 << exp.spec.size)
        states = [orbit.state(k) for k in range(exp.k_max + 1)]
        _write_json(
            exp.out,
            "sync_orbit.json",
            {
                "entry_time": orbit.entry_time,
                "period": orbit.period,
                "periodic_states": [
                    ca_mod.state_to_string(s) for s in orbit.periodic_states()
                ],
            },
        )
        _write(exp.out, "spacetime_sync.svg", render_mod.spacetime_sync(states, ps))
        _write(
            exp.out,
            "spacetime_sync.pgm",
            render_mod.spacetime_sync_pixmap(states, ps),
        )
        print(f"sync orbit: entry {orbit.entry_time}, period {orbit.period}")
    if schedule in ("async", "both"):
        exp.require("x0")
        run = ca_mod.async_run(
            exp.rule, exp.spec, exp.params, exp.s0, exp.x0, exp.k_max
        )
        _write(
            exp.out,
            "async_contours.svg",
            render_mod.contour_plot(run.trajectory, ps, run.states),
        )
        _write(
            exp.out,
            "spacetime_async_contours.svg",
            render_mod.spacetime_async(run, ps, stage="contours"),
        )
        _write(exp.out, "spacetime_async.svg", render_mod.spacetime_async(run, ps))
        _write(
            exp.out,
            "spacetime_async.pgm",
            render_mod.spacetime_async_pixmap(run, ps),
        )
        print(f"async run: {exp.k_max} cycles")
    if schedule == "both":
        ok = ca_mod.verify_bijection(
            exp.rule, exp.spec, exp.params, exp.s0, exp.x0, exp.k_max
        )
        print(f"bijection sync/async: {'PASS' if ok else 'FAIL'}")
        if not ok:
            code = 1
    return code


def cmd_stg(exp: Experiment) -> int:
    exp.require("rule")
    stg = ca_mod.build_stg(exp.rule, exp.spec)
    _write_json(exp.out, "attractor_census.json", ca_mod.attractor_census(stg))
    _write(exp.out, "stg.dot", render_mod.stg_dot(stg, _plotspec(exp)))
    census = ca_mod.attractor_census(stg)
    print(
        f"{len(census['fixed_points'])} fixed points, "
        f"{len(census['cycles'])} longer cycles, "
        f"{stg.transient_count()} transient states"
    )
    return 0


def cmd_verify(exp: Experiment, fault_cell: int | None) -> int:
    exp.require("rule", "s0", "x0", "k_max")
    P = _build_p(exp)
    checks = {}

    fault0 = None if fault_cell is None else fault_cell - 1
    checks["bijection"] = ca_mod.verify_bijection(
        exp.rule, exp.spec, exp.params, exp.s0, exp.x0, exp.k_max, fault0
    )

    event_times, _ = ca_mod.event_simulation(
        exp.rule, exp.spec, exp.params, exp.s0, exp.x0, exp.k_max, fault0
    )
    traj = traj_mod.iterate(P, exp.x0, exp.k_max)
    checks["event_times_match_matrix"] = list(traj.states) == list(event_times)

    summary = spectral_mod.analyze(P)
    report = traj_mod.detect_regime(traj, summary)
    checks["regime"] = traj_mod.verify_regime(report, P)

    checks["eigen_equation"] = all(
        P.apply(v) == vec_scale(summary.eigenvalue, v) for v in summary.eigenbasis
    )

    _write_json(
        exp.out,
        "verification.json",
        {"checks": checks, "all_passed": all(checks.values())},
    )
    for name, ok in sorted(checks.items()):
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def cmd_render(exp: Experiment) -> int:
    exp.require("rule", "s0", "x0", "k_max")
    ps = _plotspec(exp)
    P = _build_p(exp)
    summary = spectral_mod.analyze(P)
    run = ca_mod.async_run(exp.rule, exp.spec, exp.params, exp.s0, exp.x0, exp.k_max)
    orbit = ca_mod.sync_orbit(exp.rule, exp.spec, exp.s0, 1 << exp.spec.size)
    states = [orbit.state(k) for k in range(exp.k_max + 1)]
    _write(exp.out, "contour_plot.svg", render_mod.contour_plot(run.trajectory, ps))
    _write(
        exp.out,
        "async_contours.svg",
        render_mod.contour_plot(run.trajectory, ps, run.states),
    )
    _write(
        exp.out,
        "spacetime_async_contours.svg",
        render_mod.spacetime_async(run, ps, stage="contours"),
    )
    _write(exp.out, "spacetime_async.svg", render_mod.spacetime_async(run, ps))
    _write(exp.out, "spacetime_async.pgm", render_mod.spacetime_async_pixmap(run, ps))
    _write(exp.out, "spacetime_sync.svg", render_mod.spacetime_sync(states, ps))
    _write(exp.out, "spacetime_sync.pgm", render_mod.spacetime_sync_pixmap(states, ps))
    _write(
        exp.out,
        "event_dag.dot",
        render_mod.event_dag_dot(run, 0, min(3, exp.k_max), ps),
    )
    graph = spectral_mod.build_graph(P)
    _write(
        exp.out,
        "critical_graph.dot",
        render_mod.critical_graph_dot(graph, summary.critical, ps),
    )
    if exp.spec.size <= 12:
        stg = ca_mod.build_stg(exp.rule, exp.spec)
        _write(exp.out, "stg.dot", render_mod.stg_dot(stg, ps))
    print(f"rendered into {exp.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropical-ca",
        description="Max-plus timing analysis and simulation of asynchronous CA",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment JSON file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--mode", choices=MODES, help="arithmetic mode override")
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
    level = os.environ.get("TROPICAL_CA_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        exp = load_experiment(args)
        if args.command == "analyze":
            return cmd_analyze(exp)
        if args.command == "simulate":
            return cmd_simulate(exp)
        if args.command == "ca":
            return cmd_ca(exp, args.schedule)
        if args.command == "stg":
            return cmd_stg(exp)
        if args.command == "verify":
            return cmd_verify(exp, args.inject_early_update)
        if args.command == "render":
            return cmd_render(exp)
        parser.error(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except TropicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
