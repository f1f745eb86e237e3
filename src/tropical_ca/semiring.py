"""Exact arithmetic over the max-plus semiring.

Scalars live in ``R ∪ {EPS}`` where ``EPS`` stands for minus infinity.  The
two semiring operations are

* a ⊕ b = max(a, b)      with identity ``EPS``
* a ⊗ b = a + b          with identity ``E`` (the number 0)

``EPS`` absorbs under ⊗ and is neutral under ⊕; both live in
:func:`step_arcs`, where None stands for ``EPS``.  Finite
scalars are Python ``int`` (integer mode) or ``fractions.Fraction``
(rational mode), so arithmetic is exact: no rounding ever occurs, and
Python integers cannot overflow.  Scalars enter the library through
:func:`exact`, which refuses a finite float with
:class:`~tropical_ca.errors.ScalarError`.  JSON decimals such as ``0.1``
are read exactly, as the Fraction 1/10, in rational mode.

Matrices are immutable and stored as their arcs alone: per row i, the
pairs ``(j, A[i, j])`` of its finite entries, ascending in j
(``A.finite_rows()``).  ``MaxPlusMatrix.from_arcs`` builds one from those
lists and the constructor from a dense grid; no dense view is kept.
:func:`step_arcs` is the one max-plus stepping loop: ``A.apply(x)``,
``A @ B`` (column by column) and the trajectory layer's int runs go
through it, so a step costs O(arcs).  :func:`longest_paths` is the one
longest-path search, over the arcs turned round by :func:`out_arcs`: the
positive-circuit test runs it from z = 0, the Kleene star ``A.star()``
once per column from e_j, and the spectral layer once per eigenvector.
:class:`IntFrame` is the one place where arcs, an eigenvalue and vectors
become exact ints: the normalized frame of (-lambda) ⊗ A that the
spectral and trajectory layers step and compare in.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import DimensionError, KleeneStarDivergenceError, ScalarError

#: Additive identity (the semiring "zero"), written epsilon in the literature.
EPS: float = float("-inf")

#: Multiplicative identity (the semiring "one").
E: int = 0

Scalar = Union[int, Fraction, float]  # the one float is EPS
Vector = tuple  # tuple of Scalar


def is_eps(x: Scalar) -> bool:
    """True when ``x`` is the semiring zero (minus infinity)."""
    return x == EPS


def canonical(x: Scalar) -> Scalar:
    """Collapse integral Fractions to plain ints so equal values hash equal
    and serialize identically.  (An exact type test: ``isinstance`` against
    the ABC-registered Fraction costs ten times more, on every entry.)"""
    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def exact(x: Scalar) -> Scalar:
    """``canonical(x)`` for a scalar entering the library.  A finite float
    (or NaN) raises ScalarError: it would give inexact sums, and the
    spectral layer would scale it to an int with a wrong value.  (Inlined
    exact type tests: a dense 256×256 matrix makes 65k calls.)"""
    kind = type(x)
    if kind is Fraction:
        return int(x) if x.denominator == 1 else x
    if kind is float and x != EPS:
        raise ScalarError(f"{x!r} is a float; give an int or a Fraction")
    return x


def step_arcs(arcs: Sequence[Sequence[tuple]], y: Sequence) -> tuple:
    """The max-plus product A ⊗ y over the arcs of A, with None for EPS:
    per row, the greatest w + y_j over its arcs (j, w) with y_j finite, or
    None if none is.  This is the one max-plus stepping loop of the
    package; ``arcs`` is :meth:`MaxPlusMatrix.finite_rows` or the same
    lists with scaled int weights."""
    out = []
    for row in arcs:
        best = None
        for j, w in row:
            v = y[j]
            if v is not None:
                v += w
                if best is None or v > best:
                    best = v
        out.append(best)
    return tuple(out)


def out_arcs(rows: Sequence[Sequence[tuple]], cols: int) -> list:
    """The arcs of ``rows`` turned round: entry j lists ``(i, w)`` for each
    ``(j, w)`` in ``rows[i]``, ascending in i.  Of the in-arc rows
    :meth:`MaxPlusMatrix.finite_rows` it gives the out-arc view, and per
    column j the finite entries of column j."""
    succ = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, w in row:
            succ[j].append((i, w))
    return succ


def longest_paths(succ: Sequence[Sequence[tuple]], z: Sequence) -> tuple:
    """Per node i, the greatest z_j plus the weight of a walk from j to i,
    with None for EPS, over the out-arc view ``succ`` (:func:`out_arcs`).

    Bellman-Ford in rounds, each relaxing only the arcs out of the nodes
    improved in the round before.  After round k every value is at least
    the best over walks of at most k arcs, so without a positive circuit
    nothing improves after round n - 1: a longer walk repeats a node, and
    removing the enclosed circuit never lowers its weight.  Round n is the
    circuit test: an improvement there raises KleeneStarDivergenceError.
    It finds every positive circuit reachable from a finite z_j, since a
    settled z has z_i >= z_j + w on each arc j -> i, and summing that
    round a circuit gives its weight <= 0.
    """
    dist = list(z)
    frontier = [j for j, v in enumerate(dist) if v is not None]
    for _ in range(len(dist) - 1):
        improved = {}
        for j in frontier:
            dj = dist[j]
            for i, w in succ[j]:
                cand = dj + w
                di = dist[i]
                if di is None or cand > di:
                    dist[i] = cand
                    improved[i] = None
        if not improved:
            return tuple(dist)
        frontier = improved
    for j in frontier:
        dj = dist[j]
        for i, w in succ[j]:
            di = dist[i]
            if di is None or dj + w > di:
                raise KleeneStarDivergenceError(
                    "Kleene star diverges: the graph has a positive-weight circuit"
                )
    return tuple(dist)


def _times(v, s: int) -> int:
    """s·v as an int, for an int or a Fraction v whose denominator
    divides s."""
    return v * s if type(v) is int else v.numerator * (s // v.denominator)


class IntFrame:
    """The normalized frame of (-lam) ⊗ A on scaled ints.

    ``rows`` are the arc lists of A, in-arc (:meth:`MaxPlusMatrix.finite_rows`)
    or out-arc: the index of a pair is never read.  With D the least common
    denominator of the weights and of the finite entries of ``vectors``,
    lam·D = p/q in lowest terms and s = q·D, ``arcs`` holds the rows with
    the int weights s·w - p.  Then Y(k) = s·x(k) - p·k (:meth:`state`) steps
    as Y(k+1) = step_arcs(arcs, Y(k)), and y(k) = Y(k)/s (:meth:`vector`).
    ``ints`` says that every state of a run from ``vectors`` is a finite
    int vector: int weights and entries, no EPS, an arc in every row."""

    __slots__ = ("arcs", "s", "p", "ints")

    def __init__(self, rows: Sequence, lam: Scalar = 0, vectors: Iterable = ()):
        lam = exact(lam)
        if is_eps(lam):
            raise DimensionError("eigenvalue must be finite")
        vectors = tuple(vectors)
        d = math.lcm(
            *{w.denominator for row in rows for _j, w in row},
            *{v.denominator for x in vectors for v in x if type(v) is not float},
        )
        lam_d = Fraction(lam) * d
        self.s = s = lam_d.denominator * d
        self.p = p = lam_d.numerator
        self.arcs = (
            rows
            if s == 1 and p == 0
            else [[(j, _times(w, s) - p) for j, w in row] for row in rows]
        )
        self.ints = d == 1 and all(rows) and all(map(vec_is_finite, vectors))

    def state(self, k: int, x: Sequence) -> tuple:
        """Y(k) = s·x - p·k of the state x = x(k), None where x is EPS."""
        s, shift = self.s, self.p * k
        if self.ints:
            return tuple([s * v - shift for v in x])
        return tuple(
            [None if type(v) is float else _times(v, s) - shift for v in x]
        )

    def vector(self, y: Sequence) -> tuple:
        """y = Y/s as exact scalars, EPS where Y is None."""
        s = self.s
        if s == 1 and self.ints:
            return y
        return tuple(
            EPS if v is None else v // s if v % s == 0 else Fraction(v, s)
            for v in y
        )


class MaxPlusMatrix:
    """Immutable matrix over the max-plus semiring, stored as its arcs:
    per row i, the ``(j, A[i, j])`` pairs with a finite entry, ascending
    in j."""

    __slots__ = ("rows", "cols", "_arcs")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        """The matrix of a dense grid of rows, EPS marking no arc."""
        grid = [tuple(row) for row in entries]
        if not grid or not grid[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise DimensionError("rows have unequal lengths")
        self._init(
            tuple(
                tuple([(j, exact(w)) for j, w in enumerate(r) if w != EPS])
                for r in grid
            ),
            width,
        )

    def _init(self, arcs: tuple, cols: int) -> None:
        object.__setattr__(self, "_arcs", arcs)
        object.__setattr__(self, "rows", len(arcs))
        object.__setattr__(self, "cols", cols)

    def __setattr__(self, name, value):
        raise AttributeError("MaxPlusMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arcs(
        cls, rows: Iterable[Iterable[tuple]], cols: int | None = None
    ) -> "MaxPlusMatrix":
        """The matrix whose row i has the entries ``(j, w)`` of ``rows[i]``
        and EPS elsewhere; ``cols`` defaults to the row count.  The pairs
        of a row may come in any order; an EPS weight is no arc.  A column
        out of range, or given twice in a row, raises DimensionError."""
        arcs = []
        for row in rows:
            row = sorted(
                [(j, exact(w)) for j, w in row if w != EPS], key=itemgetter(0)
            )
            arcs.append(tuple(row))
        if cols is None:
            cols = len(arcs)
        if not arcs or cols < 1:
            raise DimensionError("matrix needs at least one row and one column")
        for row in arcs:
            last = -1
            for j, _w in row:
                if type(j) is not int or not last < j < cols:
                    raise DimensionError(
                        f"column {j!r} is out of range 0..{cols - 1} or repeated"
                    )
                last = j
        matrix = object.__new__(cls)
        matrix._init(tuple(arcs), cols)
        return matrix

    # -- basic protocol ----------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        return (self.cols, self._arcs) == (other.cols, other._arcs)

    def __hash__(self):
        return hash((self.cols, self._arcs))

    def __repr__(self):
        body = "; ".join(
            " ".join(f"{j}:{format_scalar(w)}" for j, w in row) or "-"
            for row in self._arcs
        )
        return f"MaxPlusMatrix({self.rows}x{self.cols}: {body})"

    # -- semiring operations -----------------------------------------------

    def __matmul__(self, other):
        """Max-plus product with a matrix, or application to a vector.
        Column j of A ⊗ B is A ⊗ (column j of B)."""
        if isinstance(other, MaxPlusMatrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by "
                    f"{other.rows}x{other.cols}"
                )
            rows = [[] for _ in range(self.rows)]
            for j, entries in enumerate(out_arcs(other._arcs, other.cols)):
                col = [None] * other.rows
                for k, w in entries:
                    col[k] = w
                for i, v in enumerate(step_arcs(self._arcs, col)):
                    if v is not None:
                        rows[i].append((j, v))
            return MaxPlusMatrix.from_arcs(rows, other.cols)
        return self.apply(other)

    def finite_rows(self) -> tuple:
        """Per row i, the ``(j, A[i, j])`` pairs with a finite entry, in
        ascending j: the arcs into node i."""
        return self._arcs

    def apply(self, vec: Sequence[Scalar]) -> Vector:
        """Matrix-vector product A ⊗ x by :func:`step_arcs`."""
        if len(vec) != self.cols:
            raise DimensionError(
                f"matrix has {self.cols} columns but vector has {len(vec)} entries"
            )
        out = step_arcs(self._arcs, [None if v == EPS else v for v in vec])
        return tuple([EPS if v is None else canonical(v) for v in out])

    def has_positive_circuit(self) -> bool:
        """True when some circuit of the precedence graph has weight > 0,
        that is when :func:`longest_paths` from z = 0 raises: every node
        starts finite, so the search reaches every circuit."""
        if not self.is_square():
            raise DimensionError("circuit test on a non-square matrix")
        try:
            longest_paths(out_arcs(self._arcs, self.cols), [E] * self.rows)
        except KleeneStarDivergenceError:
            return True
        return False

    def star(self) -> "MaxPlusMatrix":
        """Kleene star A* = ⊕_{k>=0} A^⊗k.

        Column j is :func:`longest_paths` from the unit vector e_j: when
        no circuit is positive the series is exactly the finite sum over
        k = 0..n-1, and the search settles within n - 1 rounds.  A
        positive circuit through node j is reachable from j, so the search
        of column j raises KleeneStarDivergenceError: the precondition is
        verified, not assumed.
        """
        if not self.is_square():
            raise DimensionError("star of a non-square matrix")
        n = self.rows
        succ = out_arcs(self._arcs, n)
        rows = [[] for _ in range(n)]
        for j in range(n):
            z = [None] * n
            z[j] = E
            for i, v in enumerate(longest_paths(succ, z)):
                if v is not None:
                    rows[i].append((j, v))
        return MaxPlusMatrix.from_arcs(rows)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json_dict(cls, obj: dict, mode: str = "int") -> "MaxPlusMatrix":
        try:
            rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        except (KeyError, TypeError) as exc:
            raise DimensionError(f"matrix literal missing field: {exc}") from exc
        if (
            not isinstance(entries, (list, tuple))
            or len(entries) != rows
            or any(not isinstance(r, (list, tuple)) or len(r) != cols for r in entries)
        ):
            raise DimensionError("matrix literal shape does not match rows/cols")
        return cls([[scalar_from_json(v, mode) for v in row] for row in entries])


# -- vectors ---------------------------------------------------------------


def unit_vector(n: int) -> Vector:
    """u: every entry equal to the multiplicative identity E = 0."""
    return (E,) * n


def vec_is_finite(v: Sequence[Scalar]) -> bool:
    return EPS not in v


# -- JSON scalar codec -------------------------------------------------------
#
# Wire format: EPS as the string "eps", integers as JSON numbers, rationals
# as {"num": p, "den": q}.  In rational mode a decimal literal such as 0.1
# also reads exactly: load_json keeps its text as a decimal.Decimal.

#: Bound on a decimal literal's significant digits and on the magnitude of
#: the exponent of its last digit.  Converting it to a Fraction costs time
#: and memory in proportion to that exponent (1e-10000000 takes seconds,
#: 1e-1000000000 exhausts memory), so a literal past it is refused first.
DECIMAL_CAP = 1000


def scalar_to_json(x: Scalar):
    if is_eps(x):
        return "eps"
    x = canonical(x)
    if type(x) is Fraction:
        return {"num": x.numerator, "den": x.denominator}
    return x


def load_json(fh):
    """``json.load`` reading each number with a fraction part or an
    exponent as a Decimal, for :func:`scalar_from_json`.  Malformed JSON,
    an int literal past Python's digit limit and an exponent past
    Decimal's range all raise ValueError."""
    try:
        return json.load(fh, parse_float=Decimal)
    except InvalidOperation:
        raise ValueError("a number's exponent is out of range") from None


def scalar_from_json(obj, mode: str = "int") -> Scalar:
    """The scalar of a JSON value: "eps", an int, {"num": p, "den": q}
    (rational mode) or a Decimal (rational mode, read exactly).  Anything
    else raises ScalarError."""
    if obj == "eps":
        return EPS
    if isinstance(obj, bool):
        raise ScalarError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Decimal):
        if mode == "int":
            raise ScalarError(
                f"decimal literal {obj} not allowed in int mode; "
                "rational mode reads it exactly"
            )
        _sign, digits, exponent = obj.as_tuple()
        if not obj.is_finite() or max(len(digits), abs(exponent)) > DECIMAL_CAP:
            raise ScalarError(
                f"decimal literal {obj:.6} is not finite, or has more than "
                f"{DECIMAL_CAP} digits or an exponent past ±{DECIMAL_CAP}"
            )
        return canonical(Fraction(obj))
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        if mode == "int":
            raise ScalarError("rational literal not allowed in int mode")
        num, den = obj["num"], obj["den"]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (num, den)):
            raise ScalarError(f"rational literal needs integer num and den: {obj!r}")
        if den == 0:
            raise ScalarError(f"rational literal has a zero denominator: {obj!r}")
        return canonical(Fraction(num, den))
    raise ScalarError(f"not a scalar: {obj!r}")


def format_scalar(x: Scalar) -> str:
    """Compact text form used in CSV files and diagnostics."""
    if is_eps(x):
        return "eps"
    x = canonical(x)
    if type(x) is Fraction:
        return f"{x.numerator}/{x.denominator}"
    return str(x)
