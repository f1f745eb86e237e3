"""The package is the code its commands and README's examples run.

Every command form runs in-process under ``sys.setprofile`` over the
committed configs in both modes, over three configs that read the
network the other ways (explicit xi/tau, a tau_matrix, a network file),
over one with a misspelled key, which the config walk refuses, and over
one run that the held-state cap refuses.  Then README's Python blocks
run under the same hook.  Every ``def`` in the package is looked up: one
that no command entered must be a benchmark tracer target (the names
``perfbench/`` wraps, read as ``test_benchmark_names`` reads them) or be
listed in ``UNRUN`` with its reason, and a ``DOCUMENTED`` one must be
entered by a README example.  New library code is either run by a
command or shown in README; a name that nothing needs is deleted, not
kept."""

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
from test_readme import BLOCKS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PACKAGE = Path(tropical_ca.__file__).resolve().parent

# Graphs of 2^N states beyond this many cells take seconds to build; stg
# on the smaller configs enters the same code.
STG_CELLS = 12

# Functions no command enters, with the reason each stays: a query that
# a README example enters, or a method of Python's value protocol.
DOCUMENTED = "entered by a README example"
VALUE = "value protocol"
UNRUN = {
    "ca.state_at": DOCUMENTED,
    "ca.AsyncRun.update_times": DOCUMENTED,
    "ca.AsyncRun.time_window": DOCUMENTED,
    "ca.SyncOrbit.states": DOCUMENTED,
    "ca.SyncOrbit.periodic_labels": DOCUMENTED,
    "ca.state_to_string": DOCUMENTED,
    "ca.sync_states": DOCUMENTED,
    "semiring.MaxPlusMatrix.__eq__": VALUE,
    "semiring.MaxPlusMatrix.__hash__": VALUE,
    "semiring.MaxPlusMatrix.__repr__": VALUE,
    "semiring.MaxPlusMatrix.__setattr__": VALUE,
}

# The config whose commands exit 2: its "m" is no key of topology.regular.
REFUSED = "unknown_key"
# The 10-cell ring at k_max 10^11, which the gate runs simulate on alone:
# a run of 10^12 cell-states is over cli.HELD_STATE_CAP, so it exits 2.
CAPPED = "capped"

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
    ring = json.loads((CONFIGS / "rule150_ring10.json").read_text(encoding="utf-8"))
    capped = tmp_path / f"{CAPPED}.json"
    capped.write_text(json.dumps({**ring, "k_max": 10**11}), encoding="utf-8")
    return [*out, ["simulate", "--config", str(capped)]]


def profiled(calls) -> set:
    """(file, first line) of every function that the calls enter, run one
    after another with stdout swallowed.  The package's memo caches are
    emptied first, so that a function whose result an earlier run left
    there is entered again."""
    for name, module in list(sys.modules.items()):
        if name.startswith("tropical_ca."):
            for value in vars(module).values():
                if getattr(value, "__module__", None) == name:
                    getattr(value, "cache_clear", lambda: None)()
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                call()
            finally:
                sys.setprofile(None)
    return {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in codes}


def entered(tmp_path) -> tuple:
    """The functions that the commands enter, then those that README's
    Python blocks enter, each block run in-process in a fresh namespace."""

    def command(n, argv):
        argv = [*argv, "--out", str(tmp_path / f"out{n}")]
        code = main(argv)
        # A fault the check misses (a uniform ring's) leaves verify at 0.
        config = Path(argv[argv.index("--config") + 1]).stem
        want = 2 if config in (REFUSED, CAPPED) else 0
        assert code == want or code == 1 and "--inject-early-update" in argv, argv

    commands = profiled([lambda n=n, argv=argv: command(n, argv)
                         for n, argv in enumerate(runs(tmp_path))])
    examples = profiled([lambda block=block: exec(block, {"__name__": "readme"})
                         for block in BLOCKS])
    return commands, examples


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
    reached, shown = entered(tmp_path)
    targets = tracer_targets()
    unrun = {name for name, key in defs.items() if key not in reached}
    unlisted = sorted(n for n in unrun if defs[n] not in targets and n not in UNRUN)
    assert not unlisted, f"no command runs {unlisted}: delete them, or list them with a reason"
    assert UNRUN.keys() <= defs.keys(), sorted(UNRUN.keys() - defs.keys())
    assert UNRUN.keys() <= unrun, f"a command runs {sorted(UNRUN.keys() - unrun)}"
    unshown = sorted(n for n, why in UNRUN.items() if why == DOCUMENTED and defs[n] not in shown)
    assert not unshown, f"no README example runs {unshown}: delete them, or show them in one"
    unvalued = sorted(n for n, why in UNRUN.items() if why == VALUE and not n.endswith("__"))
    assert not unvalued, f"{unvalued} are no methods of the value protocol"


def test_the_gate_runs_every_command(tmp_path):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in runs(tmp_path)} == set(sub.choices)
