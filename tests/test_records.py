"""The result records: value semantics, immutability and a light start-up."""

import os
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import tropical_ca
from tropical_ca.ca import (
    AsyncRun,
    CARule,
    Mismatch,
    StateTransitionGraph,
    SyncOrbit,
    async_run,
    build_stg,
)
from tropical_ca.cli import Experiment
from tropical_ca.errors import NetworkError, RuleError
from tropical_ca.network import NetworkSpec, TimingParameters, random_parameters, regular_ring
from tropical_ca.semiring import MaxPlusMatrix, unit_vector
from tropical_ca.spectral import CriticalGraph, SccDecomposition, SpectralSummary
from tropical_ca.trajectory import Lasso, RegimeReport, Trajectory, iterate

RING = regular_ring(5, 3)
PARAMS = random_parameters(RING, 3, (1, 9), (0, 4))
RUN = async_run(CARule.parity(), RING, PARAMS, (0, 0, 1, 0, 0), unit_vector(5), 4)
P = MaxPlusMatrix([[1, 2], [0, 3]])
CRITICAL = CriticalGraph(2, (1,), ((1, 1),), 3, ((1,),))

# (record class, its fields in order with a value each, (a field, another
# value of it)).
CASES = [
    (CARule, {"kind": "eca", "number": 150}, ("number", 90)),
    (SyncOrbit, {"size": 3, "codes": (1, 2), "entry_time": 0, "period": 2},
     ("entry_time", 1)),
    (StateTransitionGraph,
     {"size": 1, "successors": array("I", [0, 1]), "attractor_codes": array("I", [0, 1]),
      "attractor_offsets": array("I", [0, 1, 2]), "on_attractor": bytearray(b"\1\1")},
     ("attractor_codes", array("I", [1, 0]))),
    (AsyncRun,
     {"rule": RUN.rule, "spec": RUN.spec, "params": RUN.params,
      "trajectory": RUN.trajectory, "states": RUN.states},
     ("states", RUN.states[::-1])),
    (Mismatch, {"check": "bijection", "k": 3, "cell": 1, "expected": 0, "got": 1},
     ("got", Fraction(1, 2))),
    (Experiment,
     {"mode": "int", "spec": RING, "params": PARAMS, "rule": CARule.parity(),
      "s0": (0, 0, 1, 0, 0), "x0": unit_vector(5), "k_max": 4, "out": Path("out"),
      "seed": 3},
     ("out", Path("elsewhere"))),
    (NetworkSpec, {"size": 2, "arcs": ((0, 1), (1, 0)), "regular_n": None},
     ("regular_n", 1)),
    (TimingParameters, {"xi": (1, 2), "tau_items": (((0, 1), 3),)}, ("xi", (2, 1))),
    (SccDecomposition, {"components": ((0,), (1,)), "component_of": (0, 1)},
     ("component_of", (1, 0))),
    (CriticalGraph,
     {"node_count": 2, "nodes": (1,), "arcs": ((1, 1),), "eigenvalue": 3,
      "components": ((1,),)},
     ("eigenvalue", Fraction(7, 2))),
    (SpectralSummary,
     {"eigenvalue": 3, "sigma": 1, "critical": CRITICAL, "eigenbasis": ((-1, 0),)},
     ("sigma", 2)),
    (Trajectory, {"matrix": P, "states": iterate(P, (0, 0), 2).states},
     ("matrix", MaxPlusMatrix([[1, 2], [0, 4]]))),
    (RegimeReport,
     {"k_star": 1, "rho": 1, "mu": 3, "eigenvalue": 3, "contours": ((-1, 0),)},
     ("k_star", 2)),
    (Lasso, {"start": 2, "period": 3, "shift": Fraction(1, 2)}, ("shift", 0)),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize(
    "cls, fields, change", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_record_value_semantics(cls, fields, change):
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    assert by_name == by_position
    if all(map(_hashable, fields.values())):
        assert hash(by_name) == hash(by_position)
    name, other = change
    assert cls(**{**fields, name: other}) != by_name
    for attribute in (name, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_name, attribute, other)
    assert by_name == by_position


@pytest.mark.parametrize(
    "record, change, error",
    [
        (RING, {"size": 0}, NetworkError),
        (RUN, {"rule": CARule.eca(90), "spec": regular_ring(5, 5)}, RuleError),
    ],
    ids=["NetworkSpec", "AsyncRun"],
)
def test_replace_runs_the_construction_checks(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


def test_stg_label_tables_are_built_once():
    stg = build_stg(CARule.parity(), RING)
    assert stg.label_halves is build_stg(CARule.eca(90), RING).label_halves
    hi, lo, k = stg.label_halves
    assert [hi[c >> k] + lo[c % (1 << k)] for c in (0, 5, 31)] == ["00000", "00101", "11111"]


def fresh_import(module: str, watched: set) -> str:
    """The watched modules that importing module loads in a fresh
    interpreter, as printed: the test process has imported all of them."""
    src = Path(tropical_ca.__file__).resolve().parent.parent
    code = f"import sys, {module}; print(sorted({watched!r} & sys.modules.keys()))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return done.stdout


def test_cli_import_loads_no_dataclasses_inspect_logging_or_csv():
    # difflib, too, which only a refused config key loads.
    watched = {"dataclasses", "inspect", "logging", "csv", "difflib"}
    assert fresh_import("tropical_ca.cli", watched) == "[]\n"


@pytest.mark.parametrize("layer", ["semiring", "spectral", "network", "trajectory"])
def test_a_layer_loads_none_of_ca_render_or_cli(layer):
    # The package exports no names of its own, so a layer loads only
    # itself and the layers below it.
    watched = {"tropical_ca.ca", "tropical_ca.render", "tropical_ca.cli"}
    assert fresh_import(f"tropical_ca.{layer}", watched) == "[]\n"
