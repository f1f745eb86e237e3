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
from .schema import Kind, Table, walk
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

    def neighbourhoods(self) -> list:
        """Per cell, its senders in rule-application order, from one pass
        over the arcs: ascending cell index, or on a regular ring the ring
        order (offsets -r..+r around i), which for n = 3 is (left, self,
        right)."""
        senders = [[] for _ in range(self.size)]
        for j, i in self.arcs:
            senders[i].append(j)
        if self.regular_n is None:
            return [tuple(sorted(nb)) for nb in senders]
        n, r = self.size, (self.regular_n - 1) // 2
        return [tuple(sorted(nb, key=lambda j: (j - i + r) % n)) for i, nb in enumerate(senders)]

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


# -- file format: README's "Configuration" lists every key ---------------------


def _is_list(value, length: int | None = None) -> bool:
    return isinstance(value, (list, tuple)) and (
        length is None or len(value) == length
    )


def _ints(value, length: int) -> bool:
    return _is_list(value, length) and all(type(v) is int for v in value)


INT = Kind("an integer", lambda v: type(v) is int)
PATH = Kind("a path string", lambda v: isinstance(v, str))
RANGE = Kind("[lo, hi] integers", lambda v: _ints(v, 2))
TOPOLOGY = Table({
    "regular": Table({"n": INT}, needs=("n",)),
    "arcs": Kind("a list of [j, i] index pairs",
                 lambda v: _is_list(v) and all(_ints(a, 2) for a in v)),
}, needs=("regular|arcs",), excludes=(("regular", "arcs"),))
_TIMED = ("N>topology|tau_matrix", "xi>tau|tau_matrix", "tau>xi", "tau_matrix>xi")
NETWORK_FILE = Table({
    "N": Kind("a positive integer", lambda v: type(v) is int and v > 0),
    "topology": TOPOLOGY,
    "xi": Kind("a list of N scalars", _is_list),
    "tau": Kind("a list of [j, i, value] triples",
                lambda v: _is_list(v) and all(_is_list(t, 3) and _ints(t[:2], 2) for t in v)),
    "tau_matrix": Table({"rows": INT, "cols": INT, "entries": Kind("a list of rows", _is_list)},
                        needs=("rows", "cols", "entries")),
}, needs=("N", "xi", *_TIMED), excludes=(("tau", "tau_matrix"),))
# A config's network block: a file alone, or a network with explicit
# timings, generated ones (seed and ranges) or none.
GENERATED = ("seed", "xi_range", "tau_range")
NETWORK = Table(
    {**NETWORK_FILE.keys, "file": PATH, "seed": INT, "xi_range": RANGE, "tau_range": RANGE},
    needs=("file|N", *_TIMED, "seed>xi_range", "seed>tau_range"),
    excludes=(*NETWORK_FILE.excludes, *(("file", key) for key in [*NETWORK_FILE.keys, *GENERATED]),
              *((key, other) for key in ("xi", "tau", "tau_matrix") for other in GENERATED)),
)


def read_network(obj: dict, mode: str = "int"):
    """(spec, params) of a network object that passed its table's walk,
    with params None where it gives no "xi".  These are the reads that
    need N or the mode: the scalars, the lengths and the 1-based indices."""

    def scalar(value, where):
        try:
            return scalar_from_json(value, mode)
        except ScalarError as exc:
            raise NetworkError(f"{where}: {exc}") from exc

    size, topology = obj["N"], obj.get("topology", {})
    if "tau_matrix" in obj:
        try:
            matrix = MaxPlusMatrix.from_json_dict(obj["tau_matrix"], mode)
        except (ScalarError, DimensionError) as exc:
            raise NetworkError(f"tau_matrix: {exc}") from exc
        if (matrix.rows, matrix.cols) != (size, size):
            raise NetworkError("tau_matrix must be N x N")
        weights = {(i, j): w for i, row in enumerate(matrix.finite_rows()) for j, w in row}
    if "regular" in topology:
        spec = regular_ring(size, topology["regular"]["n"])
    elif "arcs" in topology:
        spec = explicit_network(size, [(j - 1, i - 1) for j, i in topology["arcs"]])
    else:
        spec = explicit_network(size, [(j, i) for i, j in weights])
    if "xi" not in obj:
        return spec, None
    xi = [scalar(v, "xi") for v in obj["xi"]]
    if "tau" in obj:
        tau = {}
        for j, i, v in obj["tau"]:
            if (i - 1, j - 1) in tau:
                raise NetworkError(f"tau names arc {j} -> {i} twice")
            tau[(i - 1, j - 1)] = scalar(v, f"tau[{j},{i}]")
    else:  # validate_timing refuses an eps on an arc and an entry off the arcs
        tau = weights
    params = TimingParameters.create(xi, tau)
    validate_timing(spec, params)
    return spec, params


def network_from_json_dict(obj, mode: str = "int"):
    """(spec, params) of the object of a network file."""
    walk(obj, NETWORK_FILE, "", NetworkError)
    return read_network(obj, mode)


def load_network(path, mode: str = "int"):
    """Read a network file, returning (NetworkSpec, TimingParameters).
    Every error is a NetworkError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = load_json(fh)
    except OSError as exc:
        raise NetworkError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise NetworkError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return network_from_json_dict(obj, mode)
    except NetworkError as exc:
        raise NetworkError(f"{path}: {exc}") from exc
