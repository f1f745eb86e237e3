"""Timing networks: topology plus processing and transmission times.

A network of N communicating cells is a digraph where arc j -> i means
cell i reads from cell j (j is in the neighbourhood of i).  Each cell i
carries a processing time xi_i > 0 and each arc a transmission time
tau_ij >= 0 (subscripts receiver-then-sender, as in the timing recurrence

    x_i(k+1) = max_{j in N_i} (x_j(k) + tau_ij) + xi_i.

That recurrence is exactly x(k+1) = P ⊗ x(k) with P = A_xi ⊗ T, so the
timing dependency matrix P has entry P[i, j] = xi_i + tau_ij on arcs and
eps elsewhere.

Node indices are 0-based inside the library and 1-based in files, matching
the usual presentation.  The regular ring topology with odd neighbourhood
size n connects every cell to the n cells centred on it (self-loop
included), so (N, 3) is the classical nearest-neighbour ring.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import NetworkError
from .semiring import (
    EPS,
    MaxPlusMatrix,
    Scalar,
    canonical,
    is_eps,
    is_finite,
    scalar_from_json,
    scalar_to_json,
)


@dataclass(frozen=True)
class NetworkSpec:
    """Pure topology: cell count and arc set (0-based, sender -> receiver)."""

    size: int
    arcs: tuple  # sorted tuple of (j, i) pairs
    regular_n: int | None = None  # neighbourhood size when built as a ring

    def __post_init__(self):
        if self.size < 1:
            raise NetworkError("network needs at least one cell")
        seen = set()
        for arc in self.arcs:
            j, i = arc
            if not (0 <= j < self.size and 0 <= i < self.size):
                raise NetworkError(f"arc {arc} references a missing cell")
            if arc in seen:
                raise NetworkError(f"duplicate arc {arc}")
            seen.add(arc)

    def predecessors(self, i: int) -> tuple:
        """Neighbourhood of cell i in rule-application order.

        Regular rings use ring order (offsets -r..+r around i, wrapping),
        which for n = 3 is (left, self, right).  Explicit topologies use
        ascending cell index.
        """
        if self.regular_n is not None:
            r = (self.regular_n - 1) // 2
            return tuple((i + d) % self.size for d in range(-r, r + 1))
        return tuple(sorted(j for (j, to) in self.arcs if to == i))

    def in_degree(self, i: int) -> int:
        return sum(1 for (_j, to) in self.arcs if to == i)

    def is_three_ring(self) -> bool:
        """True when every cell's neighbourhood is exactly
        {i-1, i, i+1} mod N, the shape ECA table rules require."""
        if self.size < 3:
            return False
        want = frozenset(
            ((i + d) % self.size, i) for i in range(self.size) for d in (-1, 0, 1)
        )
        return frozenset(self.arcs) == want


def regular_ring(size: int, n: int) -> NetworkSpec:
    """Ring of ``size`` cells, each reading the n cells centred on itself.

    n must be odd (the neighbourhood is symmetric around the cell) and at
    most size (otherwise offsets collide).  n = 1 yields isolated
    self-loops, n = size a complete neighbourhood.
    """
    if size < 1:
        raise NetworkError("network needs at least one cell")
    if n < 1 or n % 2 == 0:
        raise NetworkError(f"neighbourhood size must be odd and positive, got {n}")
    if n > size:
        raise NetworkError(f"neighbourhood size {n} exceeds cell count {size}")
    r = (n - 1) // 2
    arcs = sorted(
        ((i + d) % size, i) for i in range(size) for d in range(-r, r + 1)
    )
    return NetworkSpec(size, tuple(arcs), regular_n=n)


def explicit_network(size: int, arcs: Sequence) -> NetworkSpec:
    """Arbitrary topology from (sender, receiver) pairs, 0-based."""
    return NetworkSpec(size, tuple(sorted(tuple(a) for a in arcs)))


@dataclass(frozen=True)
class TimingParameters:
    """Processing times per cell and transmission times per arc.

    ``tau`` is keyed (receiver i, sender j) to mirror the tau_ij subscript
    convention of the recurrence.
    """

    xi: tuple  # length = size, each > 0
    tau_items: tuple  # sorted tuple of ((i, j), value)

    @property
    def tau(self) -> dict:
        return dict(self.tau_items)

    @staticmethod
    def create(xi: Sequence[Scalar], tau: Mapping) -> "TimingParameters":
        items = tuple(sorted(((i, j), canonical(v)) for (i, j), v in tau.items()))
        return TimingParameters(tuple(canonical(x) for x in xi), items)


def validate_timing(spec: NetworkSpec, params: TimingParameters) -> None:
    if len(params.xi) != spec.size:
        raise NetworkError(
            f"xi has {len(params.xi)} entries for {spec.size} cells"
        )
    for idx, x in enumerate(params.xi):
        if is_eps(x) or not is_finite(x) or x <= 0:
            raise NetworkError(f"xi[{idx + 1}] must be finite and positive, got {x!r}")
    arc_keys = {(i, j) for (j, i) in spec.arcs}
    tau = params.tau
    missing = arc_keys - set(tau)
    if missing:
        i, j = sorted(missing)[0]
        raise NetworkError(f"missing tau for arc {j + 1} -> {i + 1}")
    extra = set(tau) - arc_keys
    if extra:
        i, j = sorted(extra)[0]
        raise NetworkError(f"tau given for non-arc {j + 1} -> {i + 1}")
    for (i, j), v in tau.items():
        if is_eps(v) or v < 0:
            raise NetworkError(
                f"tau[{i + 1},{j + 1}] must be finite and >= 0, got {v!r}"
            )


def random_parameters(
    spec: NetworkSpec,
    seed: int,
    xi_range: tuple,
    tau_range: tuple,
) -> TimingParameters:
    """Integer parameters from a seeded Mersenne Twister.

    Draw order is pinned so runs reproduce across platforms: xi by cell
    index, then tau by (receiver, sender) lexicographic.  Bounds are
    inclusive integers.
    """
    xi_lo, xi_hi = xi_range
    tau_lo, tau_hi = tau_range
    for name, (lo, hi) in (("xi", (xi_lo, xi_hi)), ("tau", (tau_lo, tau_hi))):
        if not (isinstance(lo, int) and isinstance(hi, int)):
            raise NetworkError(f"{name} range must have integer bounds")
        if lo > hi:
            raise NetworkError(f"{name} range is empty: [{lo}, {hi}]")
    if xi_lo <= 0:
        raise NetworkError("xi range must be positive")
    if tau_lo < 0:
        raise NetworkError("tau range must be non-negative")
    rng = random.Random(seed)
    xi = tuple(rng.randint(xi_lo, xi_hi) for _ in range(spec.size))
    tau = {}
    for (i, j) in sorted((i, j) for (j, i) in spec.arcs):
        tau[(i, j)] = rng.randint(tau_lo, tau_hi)
    return TimingParameters.create(xi, tau)


@dataclass(frozen=True)
class TimingDependencyMatrix:
    """P = A_xi ⊗ T together with the network it came from."""

    matrix: MaxPlusMatrix
    spec: NetworkSpec
    params: TimingParameters


def build_p(spec: NetworkSpec, params: TimingParameters) -> TimingDependencyMatrix:
    """P[i, j] = xi_i + tau_ij on arcs j -> i, eps elsewhere.

    This is the product A_xi ⊗ T of the processing-time diagonal and the
    transmission matrix, filled in entry by entry: O(N + arcs) additions
    instead of an N³ product.
    """
    validate_timing(spec, params)
    n = spec.size
    xi = params.xi
    tau = params.tau
    entries = [[EPS] * n for _ in range(n)]
    for (j, i) in spec.arcs:
        entries[i][j] = xi[i] + tau[(i, j)]
    return TimingDependencyMatrix(MaxPlusMatrix(entries), spec, params)


def transmission_matrix(spec: NetworkSpec, params: TimingParameters) -> MaxPlusMatrix:
    validate_timing(spec, params)
    n = spec.size
    entries = [[EPS] * n for _ in range(n)]
    tau = params.tau
    for (j, i) in spec.arcs:
        entries[i][j] = tau[(i, j)]
    return MaxPlusMatrix(entries)


# -- file format -------------------------------------------------------------
#
# {"N": 10,
#  "topology": {"regular": {"n": 3}} or {"arcs": [[j, i], ...]},   1-based
#  "xi": [..],                                    one scalar per cell
#  "tau": [[j, i, value], ...]                    one triple per arc
#  }
# "tau" may instead be given as "tau_matrix", a matrix literal with eps
# marking absent arcs; with "tau_matrix" the topology block is optional
# (arcs are then inferred from the finite entries).


def network_to_json_dict(spec: NetworkSpec, params: TimingParameters) -> dict:
    if spec.regular_n is not None:
        topo = {"regular": {"n": spec.regular_n}}
    else:
        topo = {"arcs": [[j + 1, i + 1] for (j, i) in spec.arcs]}
    tau = params.tau
    return {
        "N": spec.size,
        "topology": topo,
        "xi": [scalar_to_json(x) for x in params.xi],
        "tau": [
            [j + 1, i + 1, scalar_to_json(tau[(i, j)])] for (j, i) in spec.arcs
        ],
    }


def save_network(path, spec: NetworkSpec, params: TimingParameters) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_json_dict(spec, params), fh, indent=2, sort_keys=True)
        fh.write("\n")


def network_from_json_dict(obj: dict, mode: str = "int"):
    if not isinstance(obj, dict):
        raise NetworkError("network file must contain a JSON object")
    try:
        size = obj["N"]
    except KeyError:
        raise NetworkError("network file missing field N") from None
    if not isinstance(size, int) or size < 1:
        raise NetworkError(f"N must be a positive integer, got {size!r}")

    topo = obj.get("topology")
    tau_matrix = None
    if "tau_matrix" in obj:
        try:
            tau_matrix = MaxPlusMatrix.from_json_dict(obj["tau_matrix"], mode)
        except ValueError as exc:
            raise NetworkError(f"tau_matrix: {exc}") from exc
        if tau_matrix.rows != size or tau_matrix.cols != size:
            raise NetworkError("tau_matrix must be N x N")

    if topo is None and tau_matrix is None:
        raise NetworkError("network file needs a topology block or a tau_matrix")

    if topo is not None:
        if "regular" in topo:
            n = topo["regular"].get("n")
            if not isinstance(n, int):
                raise NetworkError("topology.regular.n must be an integer")
            spec = regular_ring(size, n)
        elif "arcs" in topo:
            arcs = []
            for pair in topo["arcs"]:
                if len(pair) != 2:
                    raise NetworkError(f"topology.arcs entry {pair!r} is not a pair")
                j, i = pair
                arcs.append((j - 1, i - 1))
            spec = explicit_network(size, arcs)
        else:
            raise NetworkError("topology must contain 'regular' or 'arcs'")
    else:
        arcs = [
            (j, i)
            for i in range(size)
            for j in range(size)
            if is_finite(tau_matrix[i, j])
        ]
        spec = explicit_network(size, arcs)

    if "xi" not in obj:
        raise NetworkError("network file missing field xi")
    xi_raw = obj["xi"]
    if len(xi_raw) != size:
        raise NetworkError(f"xi has {len(xi_raw)} entries for N = {size}")
    try:
        xi = [scalar_from_json(v, mode) for v in xi_raw]
    except ValueError as exc:
        raise NetworkError(f"xi: {exc}") from exc

    tau = {}
    if tau_matrix is not None:
        for (j, i) in spec.arcs:
            v = tau_matrix[i, j]
            if is_eps(v):
                raise NetworkError(
                    f"tau_matrix has eps on declared arc {j + 1} -> {i + 1}"
                )
            tau[(i, j)] = v
    else:
        if "tau" not in obj:
            raise NetworkError("network file missing field tau")
        for triple in obj["tau"]:
            if len(triple) != 3:
                raise NetworkError(f"tau entry {triple!r} is not a [j, i, value] triple")
            j, i, v = triple
            try:
                tau[(i - 1, j - 1)] = scalar_from_json(v, mode)
            except ValueError as exc:
                raise NetworkError(f"tau[{j},{i}]: {exc}") from exc

    params = TimingParameters.create(xi, tau)
    validate_timing(spec, params)
    return spec, params


def load_network(path, mode: str = "int"):
    """Read a network file, returning (NetworkSpec, TimingParameters)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkError(f"{path}: not valid JSON ({exc})") from exc
    return network_from_json_dict(obj, mode)
