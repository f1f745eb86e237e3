"""The package is the code its commands run.

Every command form runs in-process under ``sys.setprofile`` over the
committed configs in both modes, over three configs that read the
network the other ways (explicit xi/tau, a tau_matrix, a network file),
and over one with a misspelled key, which the config walk refuses.
Then every ``def`` in the package is looked up: one that no command
entered must be a benchmark tracer target (the names ``perfbench/`` wraps,
read as ``test_benchmark_names`` reads them) or be listed in ``UNRUN``
with its reason.  New library code is either run by a command or listed
here; a name that nothing needs is deleted, not kept."""

import argparse
import ast
import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

import tropical_ca
from tropical_ca.cli import build_parser, main

from test_benchmark_names import load_tracer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PACKAGE = Path(tropical_ca.__file__).resolve().parent

# Graphs of 2^N states beyond this many cells take seconds to build; stg
# on the smaller configs enters the same code.
STG_CELLS = 12

# Functions no command enters, with the reason each stays.
DOCUMENTED = "test reference or documented query"
TRACER_ONLY = "called only by a tracer target"
VALUE = "value protocol"
FAILURE = "entered only on a failure"
UNRUN = {
    "ca.state_at": DOCUMENTED,
    "ca.AsyncRun.update_times": DOCUMENTED,
    "ca.AsyncRun.hold_intervals": DOCUMENTED,
    "ca.AsyncRun.time_window": DOCUMENTED,
    "ca.SyncOrbit.states": DOCUMENTED,
    "ca.SyncOrbit.periodic_states": DOCUMENTED,
    "ca.SyncOrbit.periodic_labels": DOCUMENTED,
    "ca.SyncOrbit.state": DOCUMENTED,
    "ca.StateTransitionGraph.label": DOCUMENTED,
    "ca.Attractors.__getitem__": DOCUMENTED,
    "ca.state_to_string": DOCUMENTED,
    "ca.sync_states": TRACER_ONLY,
    "semiring.MaxPlusMatrix.__eq__": VALUE,
    "semiring.MaxPlusMatrix.__hash__": VALUE,
    "semiring.MaxPlusMatrix.__repr__": VALUE,
    "semiring.MaxPlusMatrix.__setattr__": VALUE,
    "errors.CapExceededError.__init__": FAILURE,
}

# The config whose commands exit 2: its "m" is no key of topology.regular.
REFUSED = "unknown_key"

# A network file with explicit arcs and rational timings.
NET_FILE = {
    "N": 5,
    "topology": {"arcs": [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5], [1, 2], [2, 3],
                          [3, 4], [4, 5], [5, 1], [2, 1], [4, 3]]},
    "xi": [0.5, 1.25, 0.75, 1, 0.25],
    "tau": [[1, 1, 1], [2, 2, 0.5], [3, 3, 2], [4, 4, 1.5], [5, 5, 1], [1, 2, 2.25],
            [2, 3, 0.5], [3, 4, 1.75], [4, 5, 0], [5, 1, 3], [2, 1, 1.5], [4, 3, 0.25]],
}
RUN = {"rule": "parity", "x0": "unit", "k_max": 12}
EXTRA_CONFIGS = {
    "explicit": {
        "mode": "rational",
        "network": {"N": 3, "topology": {"arcs": [[1, 1], [1, 2], [2, 3], [3, 1]]},
                    "xi": [0.5, 1, 0.25], "tau": [[1, 1, 2], [1, 2, 0.75], [2, 3, 1], [3, 1, 0]]},
        "s0": "100", **RUN,
    },
    "tau_matrix": {
        "network": {"N": 3, "xi": [1, 2, 1],
                    "tau_matrix": {"rows": 3, "cols": 3,
                                   "entries": [[1, "eps", 2], [0, 1, "eps"], ["eps", 3, 0]]}},
        "s0": "110", **RUN,
    },
    "file": {"mode": "rational", "network": {"file": "net.json"}, "s0": "10010", **RUN},
    REFUSED: {"network": {"N": 3, "topology": {"regular": {"m": 3}}}, "rule": "parity"},
}


def command_forms(config: dict) -> list:
    """The command lines a config supports: the timed ones where its
    network has timings, those of the CA where it has a start state, and
    stg where its graph is small."""
    network = config["network"]
    forms = []
    if any(k in network for k in ("seed", "xi", "file")):
        forms += [["analyze"], ["simulate"]]
        if "s0" in config:
            forms += [["ca", "--schedule", s] for s in ("sync", "async", "both")]
            forms += [["verify"], ["verify", "--inject-early-update", "2"], ["render"]]
    if "rule" in config and network.get("N", 0) <= STG_CELLS:
        forms.append(["stg"])
    return forms


def runs(tmp_path) -> list:
    """The argument list of every command the gate runs: the committed
    configs in both modes, and the extra ones in their own."""
    (tmp_path / "net.json").write_text(json.dumps(NET_FILE), encoding="utf-8")
    configs = []
    for path in sorted(CONFIGS.glob("*.json")):
        config = json.loads(path.read_text(encoding="utf-8"))
        configs += [(path, config, mode) for mode in ("int", "rational")]
    for name, config in EXTRA_CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        configs.append((path, config, None))
    out = []
    for path, config, mode in configs:
        for form in command_forms(config):
            argv = [*form, "--config", str(path)]
            out.append(argv if mode is None else [*argv, "--mode", mode])
    return out


def entered(tmp_path) -> set:
    """(file, first line) of every function that the commands enter.  The
    package's memo caches are emptied first, so that a function whose
    result an earlier test left there is entered again."""
    for name, module in list(sys.modules.items()):
        if name.startswith("tropical_ca."):
            for value in vars(module).values():
                if getattr(value, "__module__", None) == name:
                    getattr(value, "cache_clear", lambda: None)()
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    for n, argv in enumerate(runs(tmp_path)):
        argv = [*argv, "--out", str(tmp_path / f"out{n}")]
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                code = main(argv)
            finally:
                sys.setprofile(None)
        # A fault the check misses (a uniform ring's) leaves verify at 0.
        want = 2 if f"{REFUSED}.json" in argv[argv.index("--config") + 1] else 0
        assert code == want or code == 1 and "--inject-early-update" in argv, argv
    return {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}


def package_defs() -> dict:
    """module.qualname -> (file, first line) of every def in the package;
    the first line of a decorated def is its first decorator's."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[prefix + child.name] = (path, first)
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return defs


def tracer_targets() -> set:
    keys = set()
    for owner, attr, _span, _counter in load_tracer().TARGETS:
        code = inspect.unwrap(getattr(owner, attr)).__code__
        keys.add((Path(code.co_filename).resolve(), code.co_firstlineno))
    return keys


def test_every_unrun_def_is_a_tracer_target_or_listed(tmp_path):
    defs = package_defs()
    reached = entered(tmp_path)
    targets = tracer_targets()
    unrun = {name for name, key in defs.items() if key not in reached}
    unlisted = sorted(n for n in unrun if defs[n] not in targets and n not in UNRUN)
    assert not unlisted, f"no command runs {unlisted}: delete them, or list them with a reason"
    assert UNRUN.keys() <= defs.keys(), sorted(UNRUN.keys() - defs.keys())
    assert UNRUN.keys() <= unrun, f"a command runs {sorted(UNRUN.keys() - unrun)}"


def test_the_gate_runs_every_command(tmp_path):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in runs(tmp_path)} == set(sub.choices)
