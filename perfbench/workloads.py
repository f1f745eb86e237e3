"""Seeded workloads for the tropical-ca benchmark.

A workload is a fixed list of CLI invocations over configs generated from
the benchmark seed; the program only ever sees those configs.  Set-up pins
the input properties that decide the cost regime, so that no seed can move
a workload into another one:

* the kind of eigenvalue of each ``spectral`` instance (an integer lambda
  keeps the dense closure in ``int``; a non-integer one normalises into
  ``Fraction`` arithmetic, several times slower at the same size, and the
  larger its denominator the slower), by re-drawing the timing seed until
  the rings have an integer lambda and the digraph one with a pinned
  denominator;
* the eigenvalue of each ``render`` ring, which sets how far the update
  times run in k_max steps and so the height of the raster, again by
  re-drawing the timing seed;
* that the ``stg`` digraph's parity map is invertible over GF(2), so every
  one of the 2^N states lies on a cycle and the census lists them all, by
  re-drawing the digraph;
* the synchronous period of every rule-150 ring, which is independent of
  the start state at the sizes used here and is asserted against a
  bit-parallel oracle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tropical_ca import network as net
from tropical_ca.semiring import EPS, MaxPlusMatrix, scalar_to_json
from tropical_ca.spectral import max_cycle_mean

WIDE = {"xi_range": [1, 30], "tau_range": [1, 10]}
NARROW = {"xi_range": [1, 2], "tau_range": [0, 1]}

# Instance sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same structure at a size the smoke test runs in a second.  The periods
# are the rule-150 periods of the ring sizes, the same for every start
# state the seeds draw.  The render lambdas are the most frequent ones of
# their ring sizes under WIDE timings, so few timing seeds are re-drawn;
# a digraph lambda with denominator 3 comes up about once in seven draws.
SIZES = {
    "full": {
        "spectral_rings": (24, 40),
        "spectral_digraph": 20,
        "digraph_denominator": 3,
        "spectral_k": 30,
        "orbit_ring": 89,
        "orbit_period": 2047,
        "orbit_k": 64,
        "stg_cells": 14,
        "timed_ring": 256,
        "timed_period": 128,
        "timed_k": 200,
        "render_ring": 12,
        "render_k": 400,
        "render_lambda": 35,
        "async_ring": 64,
        "async_k": 300,
        "async_lambda": 38,
    },
    "tiny": {
        "spectral_rings": (6, 8),
        "spectral_digraph": 6,
        "digraph_denominator": 3,
        "spectral_k": 10,
        "orbit_ring": 11,
        "orbit_period": 31,
        "orbit_k": 16,
        "stg_cells": 6,
        "timed_ring": 16,
        "timed_period": 8,
        "timed_k": 20,
        "render_ring": 6,
        "render_k": 20,
        "render_lambda": 36,
        "async_ring": 8,
        "async_k": 20,
        "async_lambda": 36,
    },
}

# Files each command writes into its --out directory.
SYNC_FILES = {"sync_orbit.json", "spacetime_sync.svg", "spacetime_sync.pgm"}
ASYNC_FILES = {
    "async_contours.svg",
    "spacetime_async_contours.svg",
    "spacetime_async.svg",
    "spacetime_async.pgm",
}
RENDER_FILES = ASYNC_FILES | {
    "contour_plot.svg",
    "spacetime_sync.svg",
    "spacetime_sync.pgm",
    "event_dag.dot",
    "critical_graph.dot",
}
EXPECTED_FILES = {
    "analyze": {"spectral.json", "critical_graph.dot"},
    "simulate": {"trajectory.csv", "regime.json", "contour_plot.svg"},
    "verify": {"verification.json"},
    "ca:sync": SYNC_FILES,
    "ca:async": ASYNC_FILES,
    "ca:both": SYNC_FILES | ASYNC_FILES,
    "stg": {"attractor_census.json", "stg.dot"},
}

MAX_REDRAWS = 200


@dataclass
class Instance:
    """One generated config plus the properties set-up pinned for it."""

    name: str
    config: dict
    facts: dict = field(default_factory=dict)


@dataclass
class Command:
    """One CLI invocation of a workload pass."""

    instance: str
    command: str
    args: tuple = ()
    period: int | None = None  # oracle period the sync orbit must show
    eigenvalue: object = None  # JSON form of the lambda spectral.json must show

    @property
    def key(self) -> str:
        if self.command == "ca":
            return f"ca:{self.args[1]}"
        return self.command

    def expected_files(self, instance: Instance) -> set:
        if self.command == "render":
            files = set(RENDER_FILES)
            if instance.config["network"]["N"] <= 12:
                files.add("stg.dot")
            return files
        return EXPECTED_FILES[self.key]


@dataclass
class Workload:
    name: str
    instances: dict
    commands: list


# -- generators ------------------------------------------------------------------


def rule150_period(bits: int, n: int) -> int:
    """Synchronous period of rule 150 on an n-ring from the start state
    ``bits``, stepped bit-parallel: s' = rotl(s) ^ s ^ rotr(s)."""
    mask = (1 << n) - 1
    seen = {}
    s, k = bits, 0
    while s not in seen:
        seen[s] = k
        left = ((s >> 1) | (s << (n - 1))) & mask
        right = ((s << 1) | (s >> (n - 1))) & mask
        s, k = left ^ s ^ right, k + 1
    return k - seen[s]


def _ring_arcs(n: int) -> list:
    return sorted(((i + d) % n, i) for i in range(n) for d in (-1, 0, 1))


def _hamiltonian_digraph(rng: random.Random, n: int, m: int) -> list:
    """A seeded Hamiltonian cycle plus distinct random chords, m arcs in
    all, no self-loops: strongly connected, so P is irreducible."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[k], order[(k + 1) % n]) for k in range(n)}
    while len(arcs) < m:
        j, i = rng.randrange(n), rng.randrange(n)
        if j != i:
            arcs.add((j, i))
    return sorted(arcs)


def _looped_digraph(rng: random.Random, n: int, m: int) -> list:
    """Self-loop on every cell plus distinct random arcs, m arcs in all,
    so in-degrees vary around m / n."""
    arcs = {(i, i) for i in range(n)}
    while len(arcs) < m:
        arcs.add((rng.randrange(n), rng.randrange(n)))
    return sorted(arcs)


def gf2_rank(rows: list, n: int) -> int:
    """Rank over GF(2) of the n x n matrix whose rows are bit masks."""
    rows, rank = list(rows), 0
    for bit in range(n):
        pivot = next((i for i in range(rank, n) if rows[i] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(n):
            if i != rank and rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _bijective_parity_digraph(rng: random.Random, n: int, m: int) -> list:
    """First looped digraph drawn from rng whose parity map s'_i = XOR of
    s_j over arcs (j, i) is invertible: then the STG is a permutation and
    every state is on an attractor, so the census costs the same for every
    seed."""
    for _ in range(MAX_REDRAWS):
        arcs = _looped_digraph(rng, n, m)
        rows = [0] * n
        for (j, i) in arcs:
            rows[i] |= 1 << j
        if gf2_rank(rows, n) == n:
            return arcs
    raise RuntimeError(f"no invertible parity digraph in {MAX_REDRAWS} draws")


def _network(n: int, arcs: list | None, timing: dict | None, seed: int | None):
    topo = {"regular": {"n": 3}} if arcs is None else {
        "arcs": [[j + 1, i + 1] for (j, i) in arcs]
    }
    block = {"N": n, "topology": topo}
    if timing is not None:
        block.update(seed=seed, **timing)
    return block


def _s0(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b")


def _eigenvalue(n: int, arcs: list, timing: dict, seed: int):
    """lambda of P[i][j] = xi_i + tau_ij, built entry by entry."""
    spec = net.explicit_network(n, arcs)
    params = net.random_parameters(
        spec, seed, tuple(timing["xi_range"]), tuple(timing["tau_range"])
    )
    tau = params.tau
    rows = [[EPS] * n for _ in range(n)]
    for (j, i) in arcs:
        rows[i][j] = params.xi[i] + tau[(i, j)]
    return max_cycle_mean(MaxPlusMatrix(rows))


def _timing_seed(rng: random.Random, n: int, arcs: list, timing: dict, wanted, kind: str):
    """First timing seed drawn from rng whose lambda passes ``wanted``."""
    for _ in range(MAX_REDRAWS):
        seed = rng.randrange(1 << 31)
        lam = _eigenvalue(n, arcs, timing, seed)
        if wanted(lam):
            return seed, lam
    raise RuntimeError(f"no timing seed in {MAX_REDRAWS} draws gives {kind} lambda")


def _integral(lam) -> bool:
    return Fraction(lam).denominator == 1


def _ring150(bits, n, k_max, expected_period, explicit=False):
    """Rule-150 3-ring config from the start state ``bits``, whose period
    is asserted against the bit-parallel oracle.  The explicit form lists
    the ring's arcs and uses parity, which is rule 150 on that ring."""
    period = rule150_period(bits, n)
    s0 = format(bits, f"0{n}b")
    if period != expected_period:
        raise RuntimeError(
            f"rule 150 on {n} cells from s0={s0} has period {period}, "
            f"not the pinned {expected_period}"
        )
    config = {
        "mode": "int",
        "network": _network(n, _ring_arcs(n) if explicit else None, None, None),
        "rule": "parity" if explicit else {"eca": 150},
        "s0": s0,
        "k_max": k_max,
    }
    return config, period


# -- workloads ---------------------------------------------------------------------


def _spectral(rng, size) -> Workload:
    k = size["spectral_k"]
    instances, commands = {}, []
    shapes = [(f"ring{n}", n, _ring_arcs(n), True, {"eca": 150})
              for n in size["spectral_rings"]]
    nd = size["spectral_digraph"]
    shapes.append(
        (f"digraph{nd}", nd, _hamiltonian_digraph(rng, nd, 3 * nd), False, "parity")
    )
    for name, n, arcs, integral, rule in shapes:
        if integral:
            seed, lam = _timing_seed(rng, n, arcs, WIDE, _integral, "an integer")
        else:
            den = size["digraph_denominator"]
            seed, lam = _timing_seed(
                rng, n, arcs, WIDE, lambda lam: Fraction(lam).denominator == den,
                f"a denominator-{den}",
            )
        regular = rule != "parity"
        s0 = _s0(rng, n)
        instances[name] = Instance(
            name,
            {
                "mode": "int",
                "network": _network(n, None if regular else arcs, WIDE, seed),
                "rule": rule,
                "s0": s0,
                "x0": "unit",
                "k_max": k,
            },
            {"N": n, "arcs": len(arcs), "lambda": str(lam)},
        )
        lam_json = scalar_to_json(lam)
        commands += [
            Command(name, "analyze", eigenvalue=lam_json),
            Command(name, "simulate"),
            Command(name, "verify"),
        ]
    return Workload("spectral", instances, commands)


def _orbit(rng, size) -> Workload:
    n, k = size["orbit_ring"], size["orbit_k"]
    bits = rng.getrandbits(n)
    instances, commands = {}, []
    # One start state, given once as a regular ring under rule 150 and once
    # as explicit arcs under parity: the same orbit through both CA paths.
    for name, explicit in ((f"ring{n}", False), (f"arcs{n}", True)):
        config, period = _ring150(bits, n, k, size["orbit_period"], explicit)
        instances[name] = Instance(name, config, {"N": n, "period": period})
        commands.append(Command(name, "ca", ("--schedule", "sync"), period=period))
    c = size["stg_cells"]
    name = f"stg{c}"
    instances[name] = Instance(
        name,
        {
            "mode": "int",
            "network": _network(c, _bijective_parity_digraph(rng, c, 3 * c), None, None),
            "rule": "parity",
        },
        {"N": c, "arcs": 3 * c, "states": 1 << c, "attractor_states": 1 << c},
    )
    commands.append(Command(name, "stg"))
    return Workload("orbit", instances, commands)


def _timed_run(rng, size) -> Workload:
    n, k = size["timed_ring"], size["timed_k"]
    config, period = _ring150(rng.getrandbits(n), n, k, size["timed_period"])
    config["network"] = _network(n, None, NARROW, rng.randrange(1 << 31))
    config["x0"] = "unit"
    name = f"ring{n}"
    return Workload(
        "timed_run",
        {name: Instance(name, config, {"N": n, "period": period})},
        [Command(name, "ca", ("--schedule", "both"), period=period)],
    )


def _render(rng, size) -> Workload:
    instances, commands = {}, []
    for rule, n, k, target, argv in (
        (110, size["render_ring"], size["render_k"], size["render_lambda"], ("render",)),
        (150, size["async_ring"], size["async_k"], size["async_lambda"],
         ("ca", "--schedule", "async")),
    ):
        name = f"eca{rule}_ring{n}" if argv[0] == "render" else f"ring{n}"
        s0 = _s0(rng, n)
        seed, lam = _timing_seed(
            rng, n, _ring_arcs(n), WIDE, lambda lam, t=target: lam == t, f"the pinned {target}"
        )
        config = {
            "mode": "int",
            "network": _network(n, None, WIDE, seed),
            "rule": {"eca": rule},
            "s0": s0,
            "x0": "unit",
            "k_max": k,
        }
        # render also builds the STG when N <= 12
        facts = {"N": n, "lambda": str(lam)}
        if argv[0] == "render":
            facts["states"] = 1 << n
        instances[name] = Instance(name, config, facts)
        commands.append(Command(name, argv[0], argv[1:]))
    return Workload("render", instances, commands)


GENERATORS = {
    "spectral": _spectral,
    "orbit": _orbit,
    "timed_run": _timed_run,
    "render": _render,
}


def build(name: str, seed: int, size: str) -> Workload:
    """The workload ``name`` for ``seed``: the same seed gives the same
    configs byte for byte."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"), SIZES[size])


def write_configs(workload: Workload, directory: Path) -> dict:
    """Write one JSON config per instance; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inst in workload.instances.values():
        path = directory / f"{inst.name}.json"
        path.write_text(json.dumps(inst.config, sort_keys=True) + "\n", encoding="utf-8")
        paths[inst.name] = path
    return paths
