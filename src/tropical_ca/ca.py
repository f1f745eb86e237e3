"""Cellular automata on timing networks, synchronous and asynchronous.

Synchronous semantics: every cell applies its local rule to the previous
global state, s(k+1) = F(s(k)).  Because the update map is a function on a
finite state set, every orbit is eventually periodic and the full state
transition graph is a functional digraph whose circuits are the attractors.

Asynchronous semantics: cell i performs its (k+1)-th update at the time
x_i(k+1) given by the max-plus timing recurrence, waiting for the states
its neighbours computed in cycle k to arrive.  Every cell therefore uses
neighbour values from exactly the previous cycle, so the state attached to
the k-th contour x(k) equals the synchronous state s(k) even though wall
clock update times are scattered.  verify_bijection re-derives the
asynchronous states with an explicit per-message event simulation (no
matrix algebra) and compares; an optional early-update fault breaks the
wait-for-all discipline in one cell to show the equality is not vacuous,
and the first counter-example then names that cell.

Between updates a cell holds its last computed state in memory: s_i(k) is
exposed on the half-open interval [x_i(k), x_i(k+1)).

Stepping: a configuration is coded as one int, cell 0 most significant
(format(code, f"0{N}b") is its state string; the STG uses the same
codes).  _compile turns (rule, spec) once into step(code) -> code that
works on the whole state at once.  Each neighbour word is a few
rotations of the code: an ECA step XORs the AND-words of the monomials
of its rule's algebraic normal form (ANF) over GF(2) in the left, self
and right words, and a parity step XORs the words of all arcs; the step
is straight-line code, one statement per word it reads.
sync_step, sync_states, trace_orbit, sync_orbit and build_stg all use
it.  trace_orbit keeps the visited codes and decodes a state only on
request; sync_orbit is a trace that must close within its cap.
build_stg fills its successor table, an array('I'), a block of
2^floor(N/2) codes at a time: one big-int expression over 32-bit fields
of tables that step fills from O(2^ceil(N/2)) codes.  Parity, and the
eight ECA rules whose ANF has degree 1 and no constant term, give a
linear map, F(a ^ b) = F(a) ^ F(b), and split by superposition; any
other ECA splits into the outputs of the two halves of the ring, each
reading its own half and two cells of the other.  A linear map of full
GF(2) rank is a bijection, listed by one walk per circuit; any other
map takes one colour pass over a second array of tags.  Either touches
each state a fixed number of times and keeps the attractors as one
array('I') of codes and one of offsets.  A state label is the join of
two half-width labels from tables of 2^(N/2) entries each, and
attractor_census_chunks streams the census JSON a block of labels at a
time, so no list of all 2^N labels, tuple per circuit or whole census
text is ever built.
The event simulation applies the rule cell by cell on purpose: it is
the independent oracle of the bijection check, with no matrix, no
_compile and no state codes.  It is two per-cycle generators.
event_times resolves each cell's (sender, delay) links once and steps
max(x_j + tau) + xi; event_states resolves the local rule (the 8-entry
ECA table, or the parity sum) once and reads no time, as without a
fault no state depends on when its messages arrived.  Only an injected
fault cell keeps a map of the last value it heard from each neighbour,
and only then are the times read.  event_simulation lists the two;
bijection_mismatch runs the states alone unless a fault cell needs the
times, and without one stops at the sync run's first recurrence.
first_mismatch scans one such run against its reference and stops at
the first counter-example, in memory of one state of each.
tests/oracles.py holds the message-by-message longhand.
"""

from __future__ import annotations

import json
import sys
from array import array
from bisect import bisect_right
from functools import cache, reduce
from operator import or_
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    CapExceededError,
    DimensionError,
    NetworkError,
    RuleError,
    StateUndefinedError,
)
from .network import NetworkSpec, TimingParameters, build_p, validate_timing
from .semiring import Scalar, format_scalar
from .trajectory import Lasso, Trajectory, iterate

State = tuple  # tuple of 0/1 ints, cell 0 first


def state_from_string(text: str) -> State:
    if not text or any(c not in "01" for c in text):
        raise RuleError(f"state string must be non-empty over 0/1, got {text!r}")
    return tuple(int(c) for c in text)


def state_to_string(state: State) -> str:
    return "".join(str(b) for b in state)


def _encode(state: State) -> int:
    """Configuration to integer, first cell most significant, so the code
    equals int(state_to_string(s), 2)."""
    code = 0
    for b in state:
        code = (code << 1) | b
    return code


_DIGIT_TO_BIT = bytes.maketrans(b"01", b"\0\1")


def _decode(code: int, n: int) -> State:
    return tuple(format(code, f"0{n}b").encode().translate(_DIGIT_TO_BIT))


class CARule(NamedTuple):
    """Local update rule.

    kind "eca": classical elementary CA table rule.  The new state is the
    binary digit of the rule number selected by the three neighbourhood
    bits (left, self, right) read as an integer 4l + 2c + r.  Only valid
    on networks where every neighbourhood is {i-1, i, i+1} mod N, and read
    in that ring order whether the ring is regular or given as arcs.

    kind "parity": sum of the predecessor states mod 2.  Valid on any
    topology and any in-degree; on a 3-ring it coincides with rule 150.
    """

    kind: str
    number: int | None = None

    @classmethod
    def eca(cls, number: int) -> "CARule":
        if type(number) is not int or not 0 <= number <= 255:
            raise RuleError(f"ECA rule number must be an int in 0..255, got {number!r}")
        return cls("eca", number)

    @classmethod
    def parity(cls) -> "CARule":
        return cls("parity")

    def apply(self, neighbour_states: Sequence[int]) -> int:
        if self.kind == "eca":
            if len(neighbour_states) != 3:
                raise RuleError(
                    f"ECA rule needs exactly 3 neighbour states, got "
                    f"{len(neighbour_states)}"
                )
            left, centre, right = neighbour_states
            return (self.number >> (4 * left + 2 * centre + right)) & 1
        if self.kind == "parity":
            return sum(neighbour_states) & 1
        raise RuleError(f"unknown rule kind {self.kind!r}")

    def describe(self) -> str:
        return f"eca{self.number}" if self.kind == "eca" else "parity"


def _check_rule_fits(rule: CARule, spec: NetworkSpec) -> None:
    if rule.kind == "eca" and not spec.is_three_ring():
        raise RuleError(
            "ECA table rules need the nearest-neighbour ring "
            "(every neighbourhood exactly {i-1, i, i+1}); "
            "use the parity rule on general topologies"
        )


def _neighbourhoods(rule: CARule, spec: NetworkSpec) -> list:
    """Per cell, the neighbours in the order the rule reads them.  An ECA
    rule reads (left, self, right) on any 3-ring, built by regular_ring or
    given as arcs; parity reads spec.neighbourhoods() (order is immaterial)."""
    n = spec.size
    if rule.kind == "eca":
        return [((i - 1) % n, i, (i + 1) % n) for i in range(n)]
    return spec.neighbourhoods()


def _rotations(n: int, pairs) -> tuple:
    """(d, mask) pairs that gather, for each (j, i) in pairs, cell j's bit
    into cell i's place: rotating the code left by d = j - i mod n moves
    every cell's bit d cells towards cell 0, and mask keeps the cells i
    whose pair has that offset."""
    masks: dict = {}
    for j, i in pairs:
        d = (j - i) % n
        masks[d] = masks.get(d, 0) | 1 << (n - 1 - i)
    return tuple(sorted(masks.items()))


def _rotated(d: int, n: int) -> str:
    """The expression of the code rotated left by d cells."""
    return f"(code << {d} | code >> {n - d})" if d else "code"


@cache
def _anf(t: int) -> tuple:
    """The ANF of the ECA rule with number (8-bit table) t: a[m] is the
    coefficient of the monomial that ANDs the inputs in m (4 left, 2 self,
    1 right), and the rule maps x to the XOR of a[m] over m ⊆ x.  By
    Möbius inversion, a[m] is the XOR of the table's bits x ⊆ m."""
    return tuple(sum(t >> x & 1 for x in range(8) if x | m == m) & 1 for m in range(8))


def _compile(rule: CARule, spec: NetworkSpec):
    """The synchronous map F as step(code) -> code on the state codes of
    _encode, checked against the network once.

    ECA: the XOR of the AND-words of the rule's ANF monomials (all ones
    for the constant).  On every 3-ring the left and right words are one
    rotation of the code each and the self word is the code; a word no
    monomial reads is not computed.  Parity: one masked rotation per arc
    offset.  The step is straight-line code, one flat statement per word
    (w ^= ...), which compiles for any number of offsets; no word gives 0.
    """
    _check_rule_fits(rule, spec)
    n = spec.size
    names = {"full": (1 << n) - 1}  # the masks the code reads, by name
    if rule.kind == "parity":
        lines, words = [], []
        for d, mask in _rotations(n, spec.arcs):
            names[f"m{d}"] = mask
            words.append(f"{_rotated(d, n)} & m{d}")
    elif rule.kind == "eca":
        monomials = [m for m, a in enumerate(_anf(rule.number)) if a]
        reads = reduce(or_, monomials, 0)  # the inputs any monomial ANDs
        # l and r: the offsets j - i mod n of j = i - 1 and i + 1.
        lines = [f"{x} = {_rotated(d % n, n)} & full"
                 for x, bit, d in (("l", 4, n - 1), ("r", 1, 1)) if reads & bit]
        words = [" & ".join(x for x, bit in (("l", 4), ("code", 2), ("r", 1)) if m & bit)
                 or "full" for m in monomials]
    else:
        raise RuleError(f"unknown rule kind {rule.kind!r}")
    lines += [f"w {'^=' if k else '='} {word}" for k, word in enumerate(words)]
    lines.append("return w" if words else "return 0")
    exec("def step(code):\n" + "".join(f" {line}\n" for line in lines), names)
    return names.pop("step")  # no cycle through its own globals


def sync_step(rule: CARule, spec: NetworkSpec, state: State) -> State:
    """One synchronous update of the whole configuration."""
    if len(state) != spec.size:
        raise RuleError(f"state has {len(state)} cells, network has {spec.size}")
    return _decode(_compile(rule, spec)(_encode(state)), spec.size)


def iter_sync_states(
    rule: CARule, spec: NetworkSpec, s0: State, k: int
) -> Iterator[State]:
    """The synchronous states s(0..k) from s0, one at a time.  The inputs
    are checked on the call."""
    step = _compile(rule, spec)
    if len(s0) != spec.size:
        raise RuleError(f"s0 has {len(s0)} cells, network has {spec.size}")
    return _sync_states(step, _encode(s0), spec.size, k)


def _sync_states(step, code: int, n: int, k: int):
    yield _decode(code, n)
    for _ in range(k):
        code = step(code)
        yield _decode(code, n)


def sync_states(rule: CARule, spec: NetworkSpec, s0: State, k: int) -> tuple:
    """The synchronous states s(0..k) from s0."""
    return tuple(iter_sync_states(rule, spec, s0, k))


class SyncOrbit(NamedTuple):
    """Orbit of one start state on ``size`` cells: the codes of s(0..entry
    + period - 1), where the tail states before ``entry`` are transient
    and the final ``period`` states repeat forever."""

    size: int
    codes: tuple
    entry_time: int
    period: int

    @property
    def states(self) -> tuple:
        return tuple(_decode(c, self.size) for c in self.codes)

    def _periodic_codes(self) -> tuple:
        return self.codes[self.entry_time : self.recurrence.end]

    def periodic_labels(self) -> list:
        """state_to_string of each periodic state."""
        fmt = f"0{self.size}b"
        return [format(c, fmt) for c in self._periodic_codes()]

    def json_chunks(self) -> Iterator[str]:
        """The text of json.dumps({"entry_time": ..., "period": ...,
        "periodic_states": self.periodic_labels()}, indent=2,
        sort_keys=True) + "\n", a block of labels at a time."""
        fmt = f"0{self.size}b"
        codes = self._periodic_codes()
        sep = (
            f'{{\n  "entry_time": {self.entry_time},\n'
            f'  "period": {self.period},\n  "periodic_states": [\n    "'
        )
        for b in range(0, len(codes), _CENSUS_BLOCK):
            block = codes[b : b + _CENSUS_BLOCK]
            yield sep + '",\n    "'.join([format(c, fmt) for c in block])
            sep = '",\n    "'
        yield '"\n  ]\n}\n'

    def states_through(self, k: int) -> tuple:
        """s(0..k): each code decoded once, at most, and the periodic
        states repeated."""
        states = tuple(_decode(c, self.size) for c in self.codes[: k + 1])
        if len(states) <= k and self.period is None:
            last = len(self.codes) - 1
            raise StateUndefinedError(f"s({k}) is past the open trace, whose last cycle is {last}")
        return states if len(states) == k + 1 else tuple(self.recurrence.repeat(states, k + 1))

    @property
    def recurrence(self) -> Lasso | None:
        """Lasso(entry, period) of the states; None for an open trace."""
        return None if self.period is None else Lasso(self.entry_time, self.period)


def trace_orbit(rule: CARule, spec: NetworkSpec, s0: State, k_max: int) -> SyncOrbit:
    """The search of :func:`sync_orbit`, except that an orbit that does
    not close within k_max steps is returned open, not refused: its codes
    are s(0..k_max), and its entry_time and period are None."""
    step = _compile(rule, spec)
    if len(s0) != spec.size:
        raise RuleError(f"s0 has {len(s0)} cells, network has {spec.size}")
    code = _encode(s0)
    seen = {code: 0}  # code -> k, in the order s(0), s(1), ...
    for k in range(1, k_max + 2):
        code = step(code)
        if code in seen:
            entry = seen[code]
            return SyncOrbit(spec.size, tuple(seen), entry, k - entry)
        if k > k_max:
            break
        seen[code] = k
    return SyncOrbit(spec.size, tuple(seen), None, None)


def sync_orbit(rule: CARule, spec: NetworkSpec, s0: State, k_max: int) -> SyncOrbit:
    """Iterate until the first repeated configuration.

    The first repeat of a deterministic map happens at (entry, entry +
    period) exactly, so it pins both numbers.  k_max caps the number of
    steps; 2^N always suffices.
    """
    trace = trace_orbit(rule, spec, s0, k_max)
    if trace.period is None:
        raise CapExceededError(
            f"no repeated configuration within the step cap k_max = {k_max}",
            k_reached=k_max + 1,
        )
    return trace


# -- state transition graph --------------------------------------------------

STG_CELL_CAP = 24
# Labels per chunk of the census and orbit texts.
_CENSUS_BLOCK = 512


def _is_linear(rule: CARule) -> bool:
    """True when the synchronous map of rule is GF(2)-linear on every
    network: parity, or an ECA whose ANF has no constant term and only
    monomials of degree 1 (m = 1, 2, 4), which holds for rules 0, 60, 90,
    102, 150, 170, 204 and 240 only."""
    if rule.kind == "parity":
        return True
    return not any(map(_anf(rule.number).__getitem__, (0, 3, 5, 6, 7)))


def _gf2_rank(vectors) -> int:
    """Rank over GF(2) of int bit masks.  Each vector is reduced by a
    basis with distinct leading bits, highest first: min(v, v ^ b)
    clears b's leading bit from v and changes only lower bits."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted([*basis, v], reverse=True)
    return len(basis)


class StateTransitionGraph(NamedTuple):
    """Functional digraph on all 2^N configurations.

    successors[c] is the code of the image of configuration c;
    on_attractor[c] is 1 when c lies on a circuit.  attractor_codes lists
    the circuits one after another, each rotated so its smallest code
    comes first, sorted by (period, smallest code); circuit i starts at
    attractor_offsets[i] and ends at attractor_offsets[i + 1].
    """

    size: int
    successors: array  # array('I'), one code per code
    attractor_codes: array  # array('I'), one code per attractor state
    attractor_offsets: array  # array('I'), one per circuit and the end
    on_attractor: bytearray  # 0/1 per code

    def fixed_point_count(self) -> int:
        """The circuits of period 1, which come first: offsets[i] - i is 0
        up to the last of them and grows by period - 1 at each circuit."""
        offsets = self.attractor_offsets
        return bisect_right(range(len(offsets)), 0, key=lambda i: offsets[i] - i) - 1

    @property
    def label_halves(self) -> tuple:
        """(hi, lo, k): hi[h] is the label of the top N - k bits, lo[l]
        that of the low k = ceil(N/2) bits, so the label of code c is
        hi[c >> k] + lo[c & (2^k - 1)] and state codes list in the order
        of hi x lo.  Built once per cell count and shared by every graph of
        that count, so read them only."""
        return _label_halves(self.size)

    def transient_count(self) -> int:
        return len(self.on_attractor) - self.on_attractor.count(1)


@cache  # one entry per cell count, at most STG_CELL_CAP + 1 from build_stg
def _label_halves(size: int) -> tuple:
    k = (size + 1) // 2
    top = size - k
    hi = [format(h, f"0{top}b") for h in range(1 << top)] if top else [""]
    lo = [format(c, f"0{k}b") for c in range(1 << k)]
    return hi, lo, k


def _fields(values) -> int:
    """The int whose 32-bit fields, lowest first, are the values."""
    return int.from_bytes(array("I", values), sys.byteorder)


def _successor_table(rule: CARule, n: int, step) -> array:
    """step mapped over every code, block h of the 2^k codes h * 2^k + l
    at a time, k = floor(N/2): the block's images are one int of 2^k
    32-bit fields, field l the image of h * 2^k + l, appended as bytes.

    The image is lo[l] ^ hi(h, l).  A linear map splits by superposition:
    F(l) ^ F(h * 2^k).  An ECA on its ring splits by output cells: the
    low k cells read the low half and cells 0 and N-k-1 of the high half,
    whose bits select one of four tables lo; the high cells read the high
    half and cells N-k and N-1, whose bits pick, through 0/1 field masks,
    one of four images of h per field.  So step runs 2^ceil(N/2) +
    2^floor(N/2) times, or four times that, not 2^N times.
    """
    k = n // 2
    full, low = (1 << n) - 1, (1 << k) - 1
    if _is_linear(rule):
        h_bits = l_bits = ()
        keep_lo = keep_hi = full
    else:
        h_bits, l_bits = (n - k - 1, 0), (k - 1, 0)
        keep_lo, keep_hi = low, full ^ low

    def select(x: int, bits: tuple) -> int:
        return sum((x >> b & 1) << i for i, b in enumerate(bits))

    def setting(j: int, bits: tuple) -> int:  # a half whose select is j
        return reduce(or_, [(j >> i & 1) << b for i, b in enumerate(bits)], 0)

    fields = range(1 << k)
    lo = [
        _fields([step(setting(j, h_bits) << k | l) & keep_lo for l in fields])
        for j in range(1 << len(h_bits))
    ]
    his = [
        (setting(j, l_bits), _fields([select(l, l_bits) == j for l in fields]))
        for j in range(1 << len(l_bits))
    ]
    succ = array("I")
    for h in range(1 << (n - k)):
        block = lo[select(h, h_bits)]
        for l, mask in his:
            block ^= (step(h << k | l) & keep_hi) * mask
        succ.frombytes(block.to_bytes(4 << k, sys.byteorder))
    return succ


def build_stg(rule: CARule, spec: NetworkSpec):
    """Exhaustive state transition graph; refuses more than STG_CELL_CAP
    cells (2^N states) to keep memory bounded.

    A linear map whose matrix has rank N over GF(2) (its columns are the
    images of the codes 1 << b) is a bijection, so every state lies on a
    circuit.  Then a walk from the least unmarked state comes back to it
    and meets its circuit smallest code first, so one walk per circuit,
    marking on_attractor, lists the circuits in the order of their
    smallest codes.  Any other map takes _colour_pass.  The circuits are
    then gathered by period.
    """
    step = _compile(rule, spec)
    n = spec.size
    if n > STG_CELL_CAP:
        raise NetworkError(
            f"state transition graph over {n} cells needs 2^{n} states; "
            f"cap is {STG_CELL_CAP} cells (trace single orbits instead)"
        )
    succ = _successor_table(rule, n, step)
    on_attr = bytearray(1 << n)
    groups = {}  # period -> its circuits, one after another, in census order
    if _is_linear(rule) and _gf2_rank(succ[1 << b] for b in range(n)) == n:
        s = 0
        while (s := on_attr.find(0, s)) >= 0:
            cycle = array("I")
            while not on_attr[s]:
                on_attr[s] = 1
                cycle.append(s)
                s = succ[s]
            if len(cycle) in groups:
                groups[len(cycle)] += cycle
            else:
                groups[len(cycle)] = cycle
    else:
        _colour_pass(succ, on_attr, groups)
    codes, offsets = array("I"), array("I")
    for p in sorted(groups):
        offsets.extend(range(len(codes), len(codes) + len(groups[p]), p))
        codes += groups.pop(p)
    offsets.append(len(codes))
    return StateTransitionGraph(n, succ, codes, offsets, on_attr)


def _colour_pass(succ: array, on_attr: bytearray, groups: dict) -> None:
    """The circuits of any map, by one colour pass: tag[s] is 0 until a
    walk reaches s, then the walk's start + 1.  Each walk starts at the
    next untagged state (tag.index) and stops at the first tagged one;
    its own tag there means a new circuit, which a second lap lists,
    rotated to its smallest code, and marks in on_attr.  groups gets
    each period's circuits in the order of their smallest codes."""
    total = len(on_attr)
    tag = array("I", bytes(4 * total + 4))  # a last 0 ends the search below
    found = array("I")  # the circuits in the order found
    starts = array("I", [0])  # where each circuit of found starts, then the end
    untagged = tag.index
    mark = 0  # the last walk's start + 1: no earlier state is untagged
    while (s := untagged(0, mark)) < total:
        mark = tag[s] = s + 1
        s = succ[s]
        while not tag[s]:
            tag[s] = mark
            s = succ[s]
        if tag[s] == mark:
            a = len(found)
            while not on_attr[s]:
                on_attr[s] = 1
                found.append(s)
                s = succ[s]
            first = min(found[a:]) if len(found) > a + 1 else s
            if (i := found.index(first, a)) > a:
                found[a:] = found[i:] + found[a:i]
            # The smallest code stands for its circuit: on_attr 2 marks it,
            # and its tag, above every mark, is total + 1 + its number.
            on_attr[first] = 2
            tag[first] = total + len(starts)
            starts.append(len(found))

    # find meets the marked smallest codes in ascending order, so each
    # period's circuits join their group in the order of the census.
    s = 0
    while (s := on_attr.find(2, s)) >= 0:
        on_attr[s] = 1
        j = tag[s] - total - 1
        a, b = starts[j], starts[j + 1]
        if b - a in groups:
            groups[b - a] += found[a:b]
        else:
            groups[b - a] = found[a:b]


def attractor_census_chunks(stg: StateTransitionGraph) -> Iterator[str]:
    """The census JSON text, json.dumps(attractor_census(stg), indent=2,
    sort_keys=True) + "\n", in chunks of at most _CENSUS_BLOCK labels:
    "cycles" lists the longer circuits with period and states, one or
    more chunks each, "fixed_points" the fixed points, both in the order
    of attractor_codes."""
    hi, lo, k = stg.label_halves
    mask = (1 << k) - 1
    codes, offsets = stg.attractor_codes, stg.attractor_offsets
    fixed = stg.fixed_point_count()
    if fixed == len(offsets) - 1:
        yield '{\n  "cycles": [],'
    else:
        sep = '{\n  "cycles": [\n'
        for i in range(fixed, len(offsets) - 1):
            a, b = offsets[i], offsets[i + 1]
            sep += f'    {{\n      "period": {b - a},\n      "states": [\n        "'
            for at in range(a, b, _CENSUS_BLOCK):
                block = codes[at : min(at + _CENSUS_BLOCK, b)]
                yield sep + '",\n        "'.join([hi[c >> k] + lo[c & mask] for c in block])
                sep = '",\n        "'
            sep = '"\n      ]\n    },\n'
        yield '"\n      ]\n    }\n  ],'
    if not fixed:
        yield '\n  "fixed_points": []\n}\n'
        return
    sep = '\n  "fixed_points": [\n    "'
    for at in range(0, fixed, _CENSUS_BLOCK):
        block = codes[at : min(at + _CENSUS_BLOCK, fixed)]
        yield sep + '",\n    "'.join([hi[c >> k] + lo[c & mask] for c in block])
        sep = '",\n    "'
    yield '"\n  ]\n}\n'


def attractor_census(stg: StateTransitionGraph) -> dict:
    """JSON-ready census, the parse of :func:`attractor_census_chunks`:
    {"fixed_points": [label, ...], "cycles": [{"period": p, "states":
    [label, ...]}, ...]}."""
    return json.loads("".join(attractor_census_chunks(stg)))


# -- asynchronous runs ---------------------------------------------------------


class _AsyncRunFields(NamedTuple):
    rule: CARule
    spec: NetworkSpec
    params: TimingParameters
    trajectory: Trajectory
    states: tuple


class AsyncRun(_AsyncRunFields):
    """Joint record of update times and contour states.

    trajectory.states[k] are the k-th update times x(k); states[k] is the
    configuration computed at that contour.  Cell i holds states[k][i] in
    memory over [x_i(k), x_i(k+1)), so construction checks that there
    are k_max + 1 states of N cells each, that every cell's update times
    strictly increase (:meth:`~tropical_ca.trajectory.Trajectory.first_stall`),
    and that the rule fits the network.
    """

    __slots__ = ()
    # _replace builds through _make: check its records too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_rule_fits(self.rule, self.spec)
        n, k_max = self.spec.size, self.trajectory.k_max
        if len(self.states) != k_max + 1 or any(len(s) != n for s in self.states):
            raise DimensionError(
                f"an async run needs k_max + 1 = {k_max + 1} states of "
                f"{n} cells each"
            )
        if (stall := self.trajectory.first_stall()) is not None:
            raise NetworkError(
                f"update times of cell {stall[0] + 1} are not strictly increasing "
                f"at cycle {stall[1]}; memory semantics need a self-loop on every "
                "cell (tau_ii present) and positive xi"
            )
        return self

    @property
    def k_max(self) -> int:
        return self.trajectory.k_max

    def update_times(self, i: int) -> tuple:
        return tuple(x[i] for x in self.trajectory.states)

    def time_window(self) -> tuple:
        """(first, last): full-state queries are defined on [first, last]."""
        states = self.trajectory.states
        return max(states[0]), min(states[self.k_max])


def async_run(
    rule: CARule,
    spec: NetworkSpec,
    params: TimingParameters,
    s0: State,
    x0: Sequence[Scalar],
    k_max: int,
) -> AsyncRun:
    """Timed run: max-plus trajectory for the update times, synchronous
    map for the contour states (the two agree cycle for cycle; see
    verify_bijection for the independent check)."""
    states = sync_states(rule, spec, s0, k_max)
    traj = iterate(build_p(spec, params), x0, k_max)
    return AsyncRun(rule, spec, params, traj, states)


def state_at(run: AsyncRun, t: Scalar) -> State:
    """Configuration held in memory at wall-clock time t.

    Defined from the first full contour, max_i x_i(0), through the last
    time every cell's current hold interval is still known,
    min_i x_i(k_max).  Intervals are closed on the left: at t = x_i(k)
    the fresh state s_i(k) is already visible.
    """
    first, last = run.time_window()
    if t < first:
        raise StateUndefinedError(
            f"state undefined before the initial contour (t = {t!r} < {first!r})"
        )
    if t > last:
        raise StateUndefinedError(
            f"state undefined beyond the computed contours (t = {t!r} > {last!r})"
        )
    bits = []
    for i in range(run.spec.size):
        times = run.update_times(i)
        k = bisect_right(times, t) - 1
        bits.append(run.states[k][i])
    return tuple(bits)


# -- event-level verification --------------------------------------------------


def _local_rule(rule: CARule, nbhd: list):
    """The local rule applied cell by cell: next(prev) -> a list of the new
    states, which the fault path edits in place, cell i reading prev at
    nbhd[i].  ECA indexes the nested 2x2x2 table t[left][self][right] that
    rule.apply gives; parity sums the neighbour bits mod 2."""
    if rule.kind == "eca":
        t = tuple(tuple(tuple(rule.apply((l, c, r)) for r in (0, 1)) for c in (0, 1))
                  for l in (0, 1))
        return lambda s: [t[s[l]][s[c]][s[r]] for l, c, r in nbhd]
    if rule.kind == "parity":
        return lambda s: [sum([s[j] for j in nb]) & 1 for nb in nbhd]
    raise RuleError(f"unknown rule kind {rule.kind!r}")


def _check_fault(spec: NetworkSpec, cell: int | None) -> None:
    if cell is not None and not (0 <= cell < spec.size):
        raise RuleError(
            f"no cell {cell + 1} to inject the fault into; "
            f"the cells are 1..{spec.size}"
        )


def _check_senders(nbhd: list) -> None:
    for i, nb in enumerate(nbhd):
        if not nb:
            raise NetworkError(
                f"cell {i + 1} has no predecessors; every cell must read someone"
            )


def event_times(
    spec: NetworkSpec,
    params: TimingParameters,
    x0: Sequence[Scalar],
    k_max: int,
    early_update_cell: int | None = None,
) -> Iterator[tuple]:
    """The update times x(0..k_max) of the message-passing run, one cycle
    at a time.

    Each cycle, cell i waits for the message of every predecessor j, sent
    at j's previous update and arriving tau_ij later, then spends xi_i
    processing: x_i(k+1) = max_j (x_j(k) + tau_ij) + xi_i, from per-arc
    bookkeeping with no max-plus matrix.  The early-update cell fires at
    its first arrival instead.  The inputs are checked on the call.
    """
    validate_timing(spec, params)
    if len(x0) != spec.size:
        raise RuleError("x0 must have one entry per cell")
    _check_fault(spec, early_update_cell)
    nbhd = spec.neighbourhoods()
    _check_senders(nbhd)
    tau = params.tau
    # Per cell, the (sender, delay) of each message, with its processing time.
    cells = tuple(
        (tuple((j, tau[(i, j)]) for j in nb), xi)
        for i, (nb, xi) in enumerate(zip(nbhd, params.xi))
    )
    return _event_times(cells, tuple(x0), k_max, early_update_cell)


def _event_times(cells: tuple, x: tuple, k_max: int, fault: int | None):
    yield x
    for _ in range(k_max):
        new = []
        for link, xi in cells:  # max() without a list; keeps the first maximum
            best = None
            for j, d in link:
                t = x[j] + d
                if best is None or t > best:
                    best = t
            new.append(best + xi)
        if fault is not None:
            link, xi = cells[fault]
            new[fault] = min([x[j] + d for j, d in link]) + xi
        x = tuple(new)
        yield x


def event_states(
    rule: CARule,
    spec: NetworkSpec,
    s0: State,
    k_max: int,
    early_update_cell: int | None = None,
    params: TimingParameters | None = None,
    times=None,
) -> Iterator[tuple]:
    """The states s(0..k_max) of the message-passing run, one cycle at a
    time, each cell applying the local rule to the states its neighbours
    computed in the previous cycle.

    A cell that waits for all its messages reads no time.  The early-update
    cell fires at its first arrival and takes, from each neighbour whose
    message is not in yet, the last value it received from it (at first
    that neighbour's s0).  Only then are ``params`` (its delays) and
    ``times`` read: an iterable of the update times x(0), x(1), ... of the
    same run, as event_times gives them with the same cell.  The inputs
    are checked on the call.
    """
    _check_rule_fits(rule, spec)
    if len(s0) != spec.size:
        raise RuleError("s0 must have one entry per cell")
    _check_fault(spec, early_update_cell)
    nbhd = _neighbourhoods(rule, spec)
    _check_senders(nbhd)
    local = _local_rule(rule, nbhd)
    fault = None
    if early_update_cell is not None:
        if params is None or times is None:
            raise RuleError("an early-update cell needs the run's timings and times")
        validate_timing(spec, params)
        nb, tau = nbhd[early_update_cell], params.tau
        delays = [tau[(early_update_cell, j)] for j in nb]
        fault = (early_update_cell, nb, delays, times)
    return _event_states(rule, local, tuple(s0), k_max, fault)


def _event_states(rule: CARule, local, s: tuple, k_max: int, fault):
    yield s
    if fault is None:
        for _ in range(k_max):
            s = tuple(local(s))
            yield s
        return
    cell, nb, delays, times = fault
    # Last value the faulty cell received from each neighbour.
    known = {j: s[j] for j in nb}
    for _, t in zip(range(k_max), times):
        arrivals = [t[j] + d for j, d in zip(nb, delays)]
        receive = min(arrivals)
        for a, j in zip(arrivals, nb):
            if a <= receive:
                known[j] = s[j]
        new = local(s)
        new[cell] = rule.apply(tuple(known[j] for j in nb))
        s = tuple(new)
        yield s


def event_simulation(
    rule: CARule,
    spec: NetworkSpec,
    params: TimingParameters,
    s0: State,
    x0: Sequence[Scalar],
    k_max: int,
    early_update_cell: int | None = None,
):
    """Message-passing simulation of the asynchronous network: the lists
    of :func:`event_times` and :func:`event_states`.

    No max-plus matrix is involved: times and states are derived purely
    from per-arc message bookkeeping, which is what makes this an
    independent oracle for the contour semantics.  With
    early_update_cell set, that cell fires as soon as its first message
    of the cycle arrives, which deliberately breaks the wait-for-all
    discipline.

    Returns (times, states): lists of length k_max + 1.
    """
    times = list(event_times(spec, params, x0, k_max, early_update_cell))
    states = event_states(rule, spec, s0, k_max, early_update_cell, params, times)
    return times, list(states)


class Mismatch(NamedTuple):
    """The first counter-example of a check: at cycle k (or at the item
    that ``at`` names, numbered k), cell ``cell`` (0-based) had ``got``
    where ``expected`` was due."""

    check: str
    k: int
    cell: int
    expected: object
    got: object
    at: str = "cycle k"

    def describe(self) -> str:
        return (
            f"{self.check}: first counter-example at {self.at} = {self.k}, "
            f"cell {self.cell + 1}: expected {format_scalar(self.expected)}, "
            f"got {format_scalar(self.got)}"
        )


def first_mismatch(check: str, expected, got) -> Mismatch | None:
    """The first cycle k and cell where ``got`` differs from ``expected``,
    two iterables of per-cycle vectors from cycle 0, or None.  The scan
    holds one vector of each and stops at the first mismatch."""
    for k, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            i = next(i for i, (a, b) in enumerate(zip(want, have)) if a != b)
            return Mismatch(check, k, i, want[i], have[i])
    return None


def bijection_mismatch(
    rule: CARule,
    spec: NetworkSpec,
    params: TimingParameters,
    s0: State,
    x0: Sequence[Scalar],
    k_max: int,
    early_update_cell: int | None = None,
) -> Mismatch | None:
    """The first cycle and cell where the event-level states differ from
    the synchronous map, or None.  Without a fault only the states are
    run, after the timings and x0 are checked as :func:`event_times`
    checks them; the times are built only for a fault cell to read.
    Without a fault the scan stops where s(k) repeats the state of its
    latest checkpoint, as :func:`~tropical_ca.trajectory.iterate` does: a
    fault-free event state is a function of the one before it, so runs
    that agree up to a repeat agree for good.  A fault cell's last-heard
    map is hidden state, so its scan runs to k_max."""
    if early_update_cell is None:
        validate_timing(spec, params)
        if len(x0) != spec.size:
            raise RuleError("x0 must have one entry per cell")
        times = None
    else:
        times = event_times(spec, params, x0, k_max, early_update_cell)
    states = event_states(rule, spec, s0, k_max, early_update_cell, params, times)
    sync = iter_sync_states(rule, spec, s0, k_max)
    return first_mismatch("bijection", _to_repeat(sync) if times is None else sync, states)


def _to_repeat(states):
    """``states`` through the first that equals its latest checkpoint."""
    for k, s in enumerate(states):
        yield s
        if k and s == ref:
            return
        if k & (k - 1) == 0:  # a checkpoint: k = 0 or a power of two
            ref = s


def verify_bijection(
    rule: CARule,
    spec: NetworkSpec,
    params: TimingParameters,
    s0: State,
    x0: Sequence[Scalar],
    k_max: int,
    early_update_cell: int | None = None,
) -> bool:
    """True iff the event-level states match the synchronous map at every
    cycle k <= k_max: :func:`bijection_mismatch` finds none.  With a fault
    injected the comparison is expected to fail; a False result then
    certifies the check has teeth."""
    return (
        bijection_mismatch(rule, spec, params, s0, x0, k_max, early_update_cell)
        is None
    )
