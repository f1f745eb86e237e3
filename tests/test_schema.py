"""The config tables: configs drawn from them load, one break of a drawn
config is one config error line that names its path, and README's
"Configuration" lists exactly their keys."""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from tropical_ca import network
from tropical_ca.cli import CONFIG, RULE, build_parser, load_experiment, main
from tropical_ca.schema import Table

README = Path(__file__).resolve().parent.parent / "README.md"

# Every object a config or a network file may hold, by README's name.
TABLES = {
    "the config": CONFIG,
    "`network`": network.NETWORK,
    "`topology`": network.TOPOLOGY,
    "`topology.regular`": network.TOPOLOGY.keys["regular"],
    "`rule`": RULE,
    "`tau_matrix`": network.NETWORK_FILE.keys["tau_matrix"],
    "a network file": network.NETWORK_FILE,
}

# Values of each key that agree with each other: a 3-cell network whose
# every arc is given (the 3-ring of n = 3), so that any set of keys the
# tables' rules allow loads.
ALL_ARCS = [[j, i] for i in (1, 2, 3) for j in (1, 2, 3)]
VALUES = {
    "mode": st.sampled_from(["int", "rational"]),
    "s0": st.just("010"),
    "x0": st.sampled_from(["unit", [0, 1, 0]]),
    "k_max": st.integers(0, 5),
    "out": st.just("out"),
    "eca": st.integers(0, 255),
    "parity": st.just(True),
    "file": st.just("net.json"),
    "N": st.just(3),
    "n": st.just(3),
    "arcs": st.just(ALL_ARCS),
    "xi": st.lists(st.integers(1, 3), min_size=3, max_size=3),
    "tau": st.just([[j, i, j + i] for j, i in ALL_ARCS]),
    "rows": st.just(3),
    "cols": st.just(3),
    "entries": st.just([[1, 0, 2], [0, 1, 1], [2, 1, 0]]),
    "seed": st.integers(0, 9),
    "xi_range": st.just([1, 3]),
    "tau_range": st.just([0, 2]),
}
# Values of the wrong type, for the keys whose test they fail.
WRONG = [None, True, -1, 7, "s", "parity", [], [1], [[1, 2]], {}, {"n": 3}]


def rules(table):
    """(trigger or None, alternatives) of each of table's needs."""
    for rule in table.needs:
        key, _, options = rule.rpartition(">")
        yield key or None, set(options.split("|"))


def allowed(table, keys) -> bool:
    return not any(a in keys and b in keys for a, b in table.excludes)


@st.composite
def valid(draw, table: Table):
    """An object that table's walk passes: keys drawn in a random order,
    each kept where it excludes none kept before, then one alternative
    added for each rule that asks for one."""
    if table.literal and draw(st.booleans()):
        return table.literal
    keys = set()
    for key in draw(st.permutations(sorted(table.keys))):
        if draw(st.booleans()) and allowed(table, keys | {key}):
            keys.add(key)
    while missing := [o for k, o in rules(table) if (k is None or k in keys) and not o & keys]:
        options = sorted(o for o in missing[0] if allowed(table, keys | {o}))
        keys.add(draw(st.sampled_from(options)))
    obj = {}
    for key in sorted(keys):
        check = table.keys[key]
        obj[key] = draw(valid(check) if isinstance(check, Table) else VALUES[key])
    return obj


def objects(obj, table, path=""):
    """(path, object, table) of obj and of each object in it."""
    if isinstance(obj, dict):
        yield path, obj, table
        for key, value in obj.items():
            if isinstance(table.keys[key], Table):
                yield from objects(value, table.keys[key], f"{path}.{key}".lstrip("."))


def run(config, net_file=None, argv=("stg",)):
    """(exit code, stderr, whether out/ exists) of one in-process run, in
    a fresh directory that holds the config and, if given, net.json."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        if net_file is not None:
            Path(tmp, "net.json").write_text(json.dumps(net_file), encoding="utf-8")
        Path(tmp, "config.json").write_text(json.dumps(config), encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--config", "config.json"])
            made = Path(tmp, "out").exists()
        finally:
            os.chdir(cwd)
    return code, err.getvalue(), made


def break_one(draw, kind, config, net_file):
    """Break one thing of the kind in config or net_file, in place: the
    text the error line must start with, or None where the object drawn
    has nothing to break that way."""
    where = [("", obj, table, path) for path, obj, table in objects(config, CONFIG)]
    if net_file is not None:
        prefix = "network: net.json: "
        where += [(prefix, o, t, p) for p, o, t in objects(net_file, network.NETWORK_FILE)]
    prefix, obj, table, path = draw(st.sampled_from(where))
    at = f"{prefix}{path}." if path else prefix
    if kind == "unknown":
        key = draw(st.sampled_from(sorted(table.keys))) + draw(st.sampled_from("xyz_"))
        assert key not in table.keys
        obj[key] = 1
        return f"{at}{key}: unknown key; did you mean '"
    if kind == "type":
        key = draw(st.sampled_from(sorted(obj)))
        check = table.keys[key]
        if isinstance(check, Table):
            bad = [v for v in WRONG if not isinstance(v, dict) and v != check.literal]
        else:
            bad = [v for v in WRONG if not check.test(v)]
        obj[key] = draw(st.sampled_from(bad))
        return f"{at}{key}: must be "
    if kind == "nesting":  # a key moved into the object that holds its own
        inner = [v for v in obj.values() if isinstance(v, dict) and v]
        if not inner:
            return None
        child = draw(st.sampled_from(inner))
        key = draw(st.sampled_from(sorted(child)))
        if key in table.keys:
            return None
        obj[key] = child.pop(key)
        return f"{at}{key}: unknown key; did you mean '"
    if kind == "needs":
        options = [o for k, o in rules(table) if k is None or k in obj]
        if not options:
            return None
        for key in draw(st.sampled_from(options)):
            obj.pop(key, None)
        return at.rstrip(".") if path or prefix else "needs "
    pairs = [(a, b) for a, b in table.excludes if a in obj or b in obj]
    if not pairs:
        return None
    for key in draw(st.sampled_from(pairs)):
        if key not in obj:
            check = table.keys[key]
            obj[key] = draw(valid(check) if isinstance(check, Table) else VALUES[key])
    return at


@pytest.mark.parametrize("kind", ["unknown", "type", "nesting", "needs", "excludes"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_configs_drawn_from_the_tables_load_and_one_break_is_one_error_line(kind, data):
    config = data.draw(valid(CONFIG), label="config")
    block = config["network"]
    net_file = data.draw(valid(network.NETWORK_FILE)) if "file" in block else None
    with tempfile.TemporaryDirectory() as tmp:
        if net_file is not None:
            Path(tmp, "net.json").write_text(json.dumps(net_file), encoding="utf-8")
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config), encoding="utf-8")
        exp = load_experiment(build_parser().parse_args(["stg", "--config", str(path)]))
    assert exp.spec.size == 3
    assert (exp.params is None) == ("file" not in block and {"xi", "seed"}.isdisjoint(block))
    start = break_one(data.draw, kind, config, net_file)
    if start is None:
        return
    note(f"the error line starts with {start!r}")
    code, err, made = run(config, net_file)
    assert code == 2, err
    assert err.startswith("config error: " + start), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not made


def test_a_misspelled_out_is_refused_before_any_directory_is_made():
    config = {
        "network": {"N": 3, "topology": {"regular": {"n": 3}}, "seed": 1,
                    "xi_range": [1, 3], "tau_range": [0, 2]},
        "ouy": "elsewhere",
    }
    code, err, made = run(config, argv=("analyze",))
    assert (code, err, made) == (2, "config error: ouy: unknown key; did you mean 'out'?\n", False)
    del config["ouy"]
    assert run(config, argv=("analyze",))[::2] == (0, True)


def readme_keys() -> dict:
    """Object name -> its keys, from the table in README's "Configuration"."""
    section = README.read_text(encoding="utf-8").split("## Configuration")[1].split("\n## ")[0]
    rows = re.findall(r"^\| (.+?) \| (.+?) \|$", section, re.MULTILINE)
    return {name: set(re.findall(r"`([^`]+)`", keys)) for name, keys in rows if name != "object"}


def test_readme_lists_exactly_the_tables_keys():
    assert readme_keys() == {name: set(table.keys) for name, table in TABLES.items()}
