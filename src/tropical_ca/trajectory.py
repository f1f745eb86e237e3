"""Trajectories of x(k+1) = P ⊗ x(k) and their periodic regime.

Raw trajectories grow linearly (about the eigenvalue lambda per step), so
they never literally repeat.  Subtracting the drift gives the normalized
sequence y(k) = x(k) - lambda·k, which evolves under the normalized matrix
(-lambda) ⊗ P and is eventually periodic: there are k* and rho with

    x(k + rho) = mu ⊗ x(k)        for all k >= k*,  mu = rho · lambda,

and rho divides the cyclicity sigma(P).  That is the cyclicity theorem of
max-plus algebra: for an irreducible P, x(k + sigma) = (sigma·lambda) ⊗
x(k) once k is past the transient (Baccelli, Cohen, Olsder and Quadrat,
*Synchronization and Linearity*, 1992; Heidergott, Olsder and van der
Woude, *Max Plus at Work*, 2006).

The normalized frame runs on the scaled ints of
:class:`~tropical_ca.semiring.IntFrame`, built from P's arcs, lambda and
x(0), the frame :func:`~tropical_ca.spectral.analyze` reads too: every
x(k) is a multiple of 1/D, with D the common denominator of P and x(0),
and y(k) = Y(k)/s for the ints Y(k) = s·x(k) - p·k, where
lambda·D = p/q and s = q·D.  Y(k+1) is P ⊗ Y(k) over the int arc
weights s·w - p.  A scalar y is formed only where one leaves the layer.

Regime detection keeps the last sigma + 1 states Y(k) only.  The first k
with Y(k) = Y(k - sigma) gives k* = k - sigma.  The tail from k* is
periodic, and no earlier state recurs: the tail from a recurring state
is purely periodic, the theorem makes sigma one of its periods, so the
state recurs sigma steps later too.  The minimal period rho divides
sigma, and it is the smallest divisor d of sigma with Y(k* + d) = Y(k*).
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import chain, cycle, islice
from operator import lt
from typing import Iterator, NamedTuple, Sequence

from .errors import CapExceededError, DimensionError
from .semiring import (
    IntFrame,
    MaxPlusMatrix,
    Scalar,
    canonical,
    exact,
    format_scalar,
    scalar_to_json,
    step_arcs,
    vec_is_finite,
)
from .spectral import SpectralSummary


class Lasso(NamedTuple):
    """An eventually periodic run: item j + period is item j plus
    ``shift`` for every j >= start (shift 0 where the items repeat
    exactly), so that items 0..end - 1 give every item."""

    start: int
    period: int
    shift: Scalar = 0

    @property
    def end(self) -> int:
        return self.start + self.period

    def fold(self, k: int) -> tuple:
        """(j, q) with j < end: item k is item j plus q·shift."""
        if k < self.start + self.period:
            return k, 0
        q, r = divmod(k - self.start, self.period)
        return self.start + r, q

    def repeat(self, items, count: int) -> Iterator:
        """The first ``count`` items without the shift, from ``items``:
        the run's items 0..end - 1, or its first count where count <= end."""
        head = items[: min(count, self.end)]
        return chain(head, islice(cycle(items[self.start : self.end]), count - len(head)))

    def join(self, other: "Lasso") -> "Lasso":
        """The run of the pairs (item of self, item of other): from the
        later start, every lcm of the periods, with self's shift over it."""
        period = math.lcm(self.period, other.period)
        return Lasso(max(self.start, other.start), period, self.shift * (period // self.period))


class Trajectory(NamedTuple):
    """States x(0..k_max) of one iteration, immutable after construction.

    ``recurrence`` is the :class:`Lasso` of the states that :func:`iterate`
    found; None when it is not known (a hand-built trajectory, or a run
    that did not recur by k_max)."""

    matrix: MaxPlusMatrix
    states: tuple  # tuple of vectors
    recurrence: Lasso | None = None

    @property
    def k_max(self) -> int:
        return len(self.states) - 1

    @property
    def size(self) -> int:
        return self.matrix.rows

    def first_stall(self) -> tuple | None:
        """(i, k): the first cell i, and its first cycle k, with x_i(k + 1)
        <= x_i(k); None where none.  Steps past the recurrence's end repeat
        earlier ones, so only x(0..end) are read."""
        rec = self.recurrence
        states = self.states if rec is None else self.states[: rec.end + 1]
        for i, times in enumerate(zip(*states)):
            if not all(map(lt, times, times[1:])):
                return i, next(k for k, t in enumerate(times[1:]) if not times[k] < t)
        return None


def iterate(P: MaxPlusMatrix, x0: Sequence[Scalar], k_max: int) -> Trajectory:
    """Iterate x(k+1) = P ⊗ x(k) from a finite start vector.

    The states are taken from :func:`iter_states` only until the run
    recurs up to a shift: x(k) = c ⊗ x(m) for the latest checkpoint m
    (k = 0 and each power of two).  From then on x(k') = c ⊗ x(k' - d)
    with d = k - m, since P ⊗ (c ⊗ x) = c ⊗ (P ⊗ x), and the rest of the
    run is shifted out of the states already held, not stepped.  Past k*
    the regime x(k + rho) = mu ⊗ x(k) makes a checkpoint recur, so this
    happens by k = 2·max(k*, rho) + rho at the latest.  The trajectory
    records the recurrence as Lasso(m, d, c), where m is the earliest
    cycle from which x(j + d) = c ⊗ x(j) holds: the checkpoint, walked
    back over the states already held, so no step is added."""
    states = []
    for k, x in enumerate(iter_states(P, x0, k_max)):
        states.append(x)
        if k and (c := _shift(ref, x)) is not None:
            # x(j + d) = c ⊗ x(j).  An int shift keeps each entry's type
            # (int, Fraction or EPS); a Fraction one may make a Fraction
            # entry integral.
            d, m = k - mark, mark
            while m and _shift(states[m - 1], states[m - 1 + d]) == c:
                m -= 1
            for j in range(k + 1 - d, k_max + 1 - d):
                y = [v + c for v in states[j]]
                states.append(tuple(y if type(c) is int else map(canonical, y)))
            return Trajectory(P, tuple(states), Lasso(m, d, c))
        if k & (k - 1) == 0:  # a checkpoint: k = 0 or a power of two
            mark, ref = k, x
    return Trajectory(P, tuple(states))


def _shift(ref: tuple, x: tuple):
    """The scalar c with x = c ⊗ ref (0 when both are all EPS), or None.
    The scan stops at the first entry that rules a shift out."""
    c = None
    for a, b in zip(ref, x):
        if type(a) is float or type(b) is float:  # EPS, the one float
            if a != b:
                return None
        elif c is None:
            c = b - a
        elif b - a != c:
            return None
    return 0 if c is None else canonical(c)


def iter_states(P: MaxPlusMatrix, x0: Sequence[Scalar], k_max: int) -> Iterator:
    """The states x(0..k_max) of :func:`iterate`, one at a time, without
    holding them.  The inputs are checked on the call.

    The run steps the scaled ints s·x(k) of the frame with lambda = 0
    (:class:`~tropical_ca.semiring.IntFrame`) and divides by s only to
    yield a state; in int mode s = 1 and the ints are the states."""
    if not P.is_square():
        raise DimensionError("iteration needs a square matrix")
    if len(x0) != P.rows:
        raise DimensionError(
            f"x0 has {len(x0)} entries for a {P.rows}-cell system"
        )
    if k_max < 0:
        raise DimensionError(f"k_max must be >= 0, got {k_max}")
    x = tuple(map(exact, x0))
    if not vec_is_finite(x):
        raise DimensionError("x0 must be finite in every entry")
    return _iter_states(P, x, k_max)


def _iter_states(P: MaxPlusMatrix, x: tuple, k_max: int):
    frame = IntFrame(P.finite_rows(), 0, (x,))
    y = frame.state(0, x)
    yield x
    for _ in range(k_max):
        y = step_arcs(frame.arcs, y)
        yield frame.vector(y)


class RegimeReport(NamedTuple):
    """Periodic regime of one trajectory.

    contours holds the normalized states y(k*), ..., y(k* + rho - 1); the
    raw trajectory repeats them forever, shifted by mu = rho·lambda per
    sweep.
    """

    k_star: int
    rho: int
    mu: Scalar
    eigenvalue: Scalar
    contours: tuple

    def to_json_dict(self) -> dict:
        return {
            "k_star": self.k_star,
            "rho": self.rho,
            "mu": scalar_to_json(self.mu),
            "lambda": scalar_to_json(self.eigenvalue),
            "contours": [[scalar_to_json(v) for v in c] for c in self.contours],
        }


def detect_regime(traj: Trajectory, spectral: SpectralSummary) -> RegimeReport:
    """Find (k*, rho, mu) from a window of the last sigma + 1 normalized
    states (module docstring).

    Reads the given trajectory and, when it is shorter than needed,
    steps the normalized frame on from its last state, until the regime
    shows at step k* + sigma or the cap of 10·N² + 10·sigma steps is
    passed.  ``spectral`` is the summary of the trajectory's matrix.

    rho is the least divisor d of sigma with y(k* + d) = y(k*).  The
    normalized map is deterministic, so y(k* + m + rho) = y(k* + m) for
    every m >= 0: the window is periodic with period rho by construction,
    and its contours y(k*), ..., y(k* + rho - 1) need no re-check.
    """
    lam, sigma = spectral.eigenvalue, spectral.sigma
    cap = 10 * traj.size**2 + 10 * sigma
    states = traj.states
    frame = IntFrame(traj.matrix.finite_rows(), lam, states[:1])
    window = deque(maxlen=sigma + 1)
    for k in range(cap + 1):
        if k < len(states):
            y = frame.state(k, states[k])
        else:
            y = step_arcs(frame.arcs, y)
        window.append(y)
        if k >= sigma and y == window[0]:
            break
    else:
        raise CapExceededError(
            f"no periodic regime within {cap} steps: the heuristic step cap "
            "10*N^2 + 10*sigma ran out",
            k_reached=cap,
        )

    rho = next(d for d in range(1, sigma + 1) if sigma % d == 0 and window[d] == y)
    return RegimeReport(
        k_star=k - sigma,
        rho=rho,
        mu=canonical(lam * rho),
        eigenvalue=lam,
        contours=tuple(frame.vector(window[m]) for m in range(rho)),
    )


def cycletime(report: RegimeReport) -> Scalar:
    """Exact asymptotic growth rate mu / rho (equal for every cell)."""
    return canonical(Fraction(report.mu) / report.rho)


def cyclic_mismatch(P: MaxPlusMatrix, lam: Scalar, cycles) -> tuple | None:
    """None iff P ⊗ c[m] = lam ⊗ c[m + 1] around each cycle c of vectors
    (indices mod len(c)); a cycle of one vector is an eigenvector.  Else
    the first counter-example: (j, i, (lam ⊗ c′)_i, (P ⊗ c)_i) for the
    first vector c where P ⊗ c ≠ lam ⊗ c′, numbered j from 0 across the
    cycles in order, and its first cell i (0-based) that differs.

    The test runs on the ints of the normalized frame of P and lam, scaled
    to cover every vector too: there P ⊗ c = lam ⊗ c′ reads
    step_arcs(arcs, Y(c)) = Y(c′).  A vector entry may be EPS; a finite
    float raises ScalarError.
    """
    cycles = [[tuple(map(exact, c)) for c in cyc] for cyc in cycles]
    if any(len(c) != P.cols for cyc in cycles for c in cyc):
        raise DimensionError(f"a vector's length is not the matrix's {P.cols}")
    frame = IntFrame(P.finite_rows(), lam, (c for cyc in cycles for c in cyc))
    j = 0
    for cyc in cycles:
        ys = [frame.state(0, c) for c in cyc]
        for m, y in enumerate(ys):
            got, want = step_arcs(frame.arcs, y), ys[(m + 1) % len(ys)]
            if got != want:
                i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
                got, want = frame.vector(got)[i], frame.vector(want)[i]
                return j + m, i, canonical(want + lam), canonical(got + lam)
        j += len(cyc)
    return None


def verify_regime(
    report: RegimeReport, P: MaxPlusMatrix, spectral: SpectralSummary
) -> bool:
    """Re-check every regime invariant of the report, exactly.

    ``spectral`` is the summary of P, as for :func:`detect_regime`.  True
    iff rho >= 1, rho divides sigma(P), mu equals rho times the eigenvalue
    of P, and P maps each contour to the next one shifted by lambda
    (wrapping round), which :func:`cyclic_mismatch` finds no exception to.
    Then every contour is also an eigenvector of P^⊗rho with eigenvalue
    mu, as ⊗ by a scalar commutes with P.
    """
    lam = spectral.eigenvalue
    rho = report.rho
    if rho < 1 or spectral.sigma % rho != 0:
        return False
    if canonical(report.eigenvalue) != canonical(lam):
        return False
    if canonical(report.mu) != canonical(lam * rho):
        return False
    if len(report.contours) != rho or report.k_star < 0:
        return False
    return cyclic_mismatch(P, lam, [report.contours]) is None


class _Texts(dict):
    """Text of y = Y/s per scaled value Y, formatted on first use."""

    def __init__(self, s: int):
        super().__init__()
        self.s = s

    def __missing__(self, v):
        if v is None:
            text = "eps"
        else:
            g = math.gcd(v, self.s)
            text = str(v // g) if g == self.s else f"{v // g}/{self.s // g}"
        self[v] = text
        return text


# Rows per chunk of trajectory.csv.
_CSV_BLOCK = 1024


def csv_chunks(traj: Trajectory, eigenvalue: Scalar) -> Iterator[str]:
    """The text of trajectory.csv, a block of rows at a time: header k,
    x_1..x_N and the normalized columns y_1..y_N of the eigenvalue
    lambda.  No field (a name, an int, eps or p/q) needs quoting, so a
    row is its fields joined by "," and ended by CRLF, byte for byte what
    csv.writer's default dialect writes."""
    n = traj.size
    header = ["k"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)]
    frame = IntFrame(traj.matrix.finite_rows(), eigenvalue, traj.states[:1])
    texts = _Texts(frame.s).__getitem__

    def row(k, x):
        cells = [str(k), *[str(v) if type(v) is int else format_scalar(v) for v in x]]
        cells += map(texts, frame.state(k, x))
        return ",".join(cells)

    states = traj.states
    lines = [",".join(header)]
    for b in range(0, len(states), _CSV_BLOCK):
        lines += [row(k, x) for k, x in enumerate(states[b : b + _CSV_BLOCK], b)]
        lines.append("")
        yield "\r\n".join(lines)
        lines = []


def write_trajectory_csv(traj: Trajectory, path, eigenvalue: Scalar):
    """Write :func:`csv_chunks` to path as they come."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(csv_chunks(traj, eigenvalue))
