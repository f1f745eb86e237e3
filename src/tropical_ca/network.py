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

import random
from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionError, NetworkError, ScalarError
from .semiring import (
    MaxPlusMatrix,
    Scalar,
    exact,
    is_eps,
    load_json,
    scalar_from_json,
)


class _NetworkFields(NamedTuple):
    size: int
    arcs: tuple  # sorted tuple of (j, i) pairs
    regular_n: int | None = None  # neighbourhood size when built as a ring


class NetworkSpec(_NetworkFields):
    """Pure topology: cell count and arc set (0-based, sender -> receiver)."""

    __slots__ = ()
    # _replace builds through _make: check its records too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

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


class TimingParameters(NamedTuple):
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
        items = tuple(sorted(((i, j), exact(v)) for (i, j), v in tau.items()))
        return TimingParameters(tuple(map(exact, xi)), items)


def validate_timing(spec: NetworkSpec, params: TimingParameters) -> None:
    if len(params.xi) != spec.size:
        raise NetworkError(
            f"xi has {len(params.xi)} entries for {spec.size} cells"
        )
    for idx, x in enumerate(params.xi):
        if is_eps(x) or x <= 0:
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
        if not (type(lo) is int and type(hi) is int):
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


def build_p(spec: NetworkSpec, params: TimingParameters) -> MaxPlusMatrix:
    """P[i, j] = xi_i + tau_ij on arcs j -> i, eps elsewhere.

    This is the product A_xi ⊗ T of the processing-time diagonal and the
    transmission matrix, written as its arcs: one addition per arc, and no
    N x N grid.
    """
    validate_timing(spec, params)
    xi = params.xi
    tau = params.tau
    rows = [[] for _ in range(spec.size)]
    for (j, i) in spec.arcs:
        rows[i].append((j, xi[i] + tau[(i, j)]))
    return MaxPlusMatrix.from_arcs(rows)


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


def _is_list(value, length: int | None = None) -> bool:
    return isinstance(value, (list, tuple)) and (
        length is None or len(value) == length
    )


def _spec_from_json_dict(
    obj: dict, tau_matrix: MaxPlusMatrix | None = None
) -> NetworkSpec:
    """The cells and arcs of a network object: N plus its "topology"
    block or, when the block is absent, the finite entries of tau_matrix.

    This is the one reader of N and the topology, for network files and
    for the network block of an experiment config alike.
    """
    size = obj.get("N")
    if type(size) is not int or size < 1:
        raise NetworkError(f"N must be a positive integer, got {size!r}")
    if tau_matrix is not None and (tau_matrix.rows, tau_matrix.cols) != (size, size):
        raise NetworkError("tau_matrix must be N x N")
    topo = obj.get("topology")
    if topo is None:
        if tau_matrix is None:
            raise NetworkError("needs a topology block or a tau_matrix")
        rows = tau_matrix.finite_rows()
        return explicit_network(
            size, [(j, i) for i, row in enumerate(rows) for (j, _w) in row]
        )
    if not isinstance(topo, dict):
        raise NetworkError("topology must be an object")
    if "regular" in topo and "arcs" in topo:
        raise NetworkError("topology must contain 'regular' or 'arcs', not both")
    if "regular" in topo:
        regular = topo["regular"]
        n = regular.get("n") if isinstance(regular, dict) else None
        if type(n) is not int:
            raise NetworkError("topology.regular.n must be an integer")
        return regular_ring(size, n)
    if "arcs" in topo:
        arcs = topo["arcs"]
        if not _is_list(arcs) or not all(
            _is_list(pair, 2) and all(type(v) is int for v in pair) for pair in arcs
        ):
            raise NetworkError("topology.arcs must be a list of [j, i] index pairs")
        return explicit_network(size, [(j - 1, i - 1) for (j, i) in arcs])
    raise NetworkError("topology must contain 'regular' or 'arcs'")


def network_from_json_dict(obj: dict, mode: str = "int"):
    if not isinstance(obj, dict):
        raise NetworkError("network must be a JSON object")
    tau_matrix = None
    if "tau_matrix" in obj:
        try:
            tau_matrix = MaxPlusMatrix.from_json_dict(obj["tau_matrix"], mode)
        except (ScalarError, DimensionError) as exc:
            raise NetworkError(f"tau_matrix: {exc}") from exc
    spec = _spec_from_json_dict(obj, tau_matrix)
    size = spec.size

    xi_raw = obj.get("xi")
    if not _is_list(xi_raw):
        raise NetworkError(f"xi must be a list of N = {size} scalars, got {xi_raw!r}")
    if len(xi_raw) != size:
        raise NetworkError(f"xi has {len(xi_raw)} entries for N = {size}")
    try:
        xi = [scalar_from_json(v, mode) for v in xi_raw]
    except ScalarError as exc:
        raise NetworkError(f"xi: {exc}") from exc

    tau = {}
    if tau_matrix is not None:
        weights = [dict(row) for row in tau_matrix.finite_rows()]
        for (j, i) in spec.arcs:
            v = weights[i].get(j)
            if v is None:
                raise NetworkError(
                    f"tau_matrix has eps on declared arc {j + 1} -> {i + 1}"
                )
            tau[(i, j)] = v
    else:
        triples = obj.get("tau")
        if not _is_list(triples):
            raise NetworkError(
                f"tau must be a list of [j, i, value] triples, got {triples!r}"
            )
        for triple in triples:
            if not _is_list(triple, 3) or not all(
                type(v) is int for v in triple[:2]
            ):
                raise NetworkError(f"tau entry {triple!r} is not a [j, i, value] triple")
            j, i, v = triple
            try:
                tau[(i - 1, j - 1)] = scalar_from_json(v, mode)
            except ScalarError as exc:
                raise NetworkError(f"tau[{j},{i}]: {exc}") from exc

    params = TimingParameters.create(xi, tau)
    validate_timing(spec, params)
    return spec, params


def load_network(path, mode: str = "int"):
    """Read a network file, returning (NetworkSpec, TimingParameters)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = load_json(fh)
        except ValueError as exc:
            raise NetworkError(f"{path}: not valid JSON ({exc})") from exc
    return network_from_json_dict(obj, mode)
