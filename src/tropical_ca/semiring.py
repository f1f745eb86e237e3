"""Exact arithmetic over the max-plus semiring.

Scalars live in ``R ∪ {EPS}`` where ``EPS`` stands for minus infinity.  The
two semiring operations are

* ``oplus(a, b)``  = max(a, b)      with identity ``EPS``
* ``otimes(a, b)`` = a + b          with identity ``E`` (the number 0)

``EPS`` absorbs under ``otimes`` and is neutral under ``oplus``.  Finite
scalars are Python ``int`` (integer mode), ``fractions.Fraction`` (rational
mode) or ``float`` (floating mode).  Integer and rational arithmetic is
exact: no rounding ever occurs, and Python integers cannot overflow.
Operations that depend on exact equality refuse float entries and raise
:class:`~tropical_ca.errors.ExactArithmeticError`.

Matrices are dense, immutable and row-major.  ``A @ B`` is the max-plus
product, ``A + B`` the entry-wise max, ``A.star()`` the Kleene star
``E ⊕ A ⊕ A² ⊕ …`` truncated exactly at length n-1 (valid because the star
only exists when no circuit has positive weight).  ``A.apply(x)`` and
``A.finite_rows()`` walk only the finite entries of each row, so iterating
a sparse matrix costs O(arcs) per step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    DimensionError,
    ExactArithmeticError,
    KleeneStarDivergenceError,
)

#: Additive identity (the semiring "zero"), written epsilon in the literature.
EPS: float = float("-inf")

#: Multiplicative identity (the semiring "one").
E: int = 0

Scalar = Union[int, Fraction, float]
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


def is_finite(x: Scalar) -> bool:
    return not is_eps(x)


def is_exact(x: Scalar) -> bool:
    """True for ints, Fractions and EPS; false for finite floats."""
    if isinstance(x, float):
        return x == EPS
    return isinstance(x, (int, Fraction))


def oplus(a: Scalar, b: Scalar) -> Scalar:
    """Semiring addition: max(a, b)."""
    if is_eps(a):
        return b
    if is_eps(b):
        return a
    return a if a >= b else b


def otimes(a: Scalar, b: Scalar) -> Scalar:
    """Semiring multiplication: a + b, with EPS absorbing."""
    if is_eps(a) or is_eps(b):
        return EPS
    return canonical(a + b)


def oplus_all(values: Iterable[Scalar]) -> Scalar:
    acc = EPS
    for v in values:
        acc = oplus(acc, v)
    return acc


def neg(x: Scalar) -> Scalar:
    """Additive inverse of a finite scalar (the otimes-inverse)."""
    if is_eps(x):
        raise ValueError("epsilon has no otimes inverse")
    return canonical(-x)


def _product_row(row: Sequence[Scalar], cols: Sequence[Sequence[Scalar]]) -> tuple:
    out = []
    for col in cols:
        best = EPS
        for a, b in zip(row, col):
            if a != EPS and b != EPS:
                s = a + b
                if s > best:
                    best = s
        out.append(canonical(best))
    return tuple(out)


class MaxPlusMatrix:
    """Immutable dense matrix over the max-plus semiring."""

    __slots__ = ("rows", "cols", "entries", "_finite_rows")

    def __init__(self, entries: Iterable[Iterable[Scalar]]):
        grid = tuple(tuple(canonical(v) for v in row) for row in entries)
        if not grid or not grid[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise DimensionError("rows have unequal lengths")
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_finite_rows", None)

    def __setattr__(self, name, value):
        raise AttributeError("MaxPlusMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "MaxPlusMatrix":
        """E(n, n): E on the diagonal, EPS elsewhere."""
        return cls([[E if i == j else EPS for j in range(n)] for i in range(n)])

    @classmethod
    def epsilons(cls, rows: int, cols: int) -> "MaxPlusMatrix":
        return cls([[EPS] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "MaxPlusMatrix":
        n = len(values)
        return cls(
            [[values[i] if i == j else EPS for j in range(n)] for i in range(n)]
        )

    # -- basic protocol ----------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(
            " ".join("eps" if is_eps(v) else str(v) for v in row)
            for row in self.entries
        )
        return f"MaxPlusMatrix({self.rows}x{self.cols}: {body})"

    # -- semiring operations -----------------------------------------------

    def __add__(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        """Entry-wise oplus (max)."""
        if not isinstance(other, MaxPlusMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return MaxPlusMatrix(
            [
                [oplus(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __matmul__(self, other):
        """Max-plus product with a matrix, or application to a vector."""
        if isinstance(other, MaxPlusMatrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by "
                    f"{other.rows}x{other.cols}"
                )
            cols = tuple(zip(*other.entries))
            return MaxPlusMatrix([_product_row(r, cols) for r in self.entries])
        return self.apply(other)

    def finite_rows(self) -> tuple:
        """Per row i, the ``(j, A[i, j])`` pairs with a finite entry, in
        ascending j: the arcs into node i.  Computed once, on first use."""
        rows = self._finite_rows
        if rows is None:
            rows = tuple(
                tuple((j, w) for j, w in enumerate(row) if w != EPS)
                for row in self.entries
            )
            object.__setattr__(self, "_finite_rows", rows)
        return rows

    def apply(self, vec: Sequence[Scalar]) -> Vector:
        """Matrix-vector product A ⊗ x, over the finite entries only."""
        if len(vec) != self.cols:
            raise DimensionError(
                f"matrix has {self.cols} columns but vector has {len(vec)} entries"
            )
        out = []
        for row in self.finite_rows():
            best = EPS
            for j, a in row:
                b = vec[j]
                if b != EPS:
                    s = a + b
                    if s > best:
                        best = s
            out.append(canonical(best))
        return tuple(out)

    def scale(self, alpha: Scalar) -> "MaxPlusMatrix":
        """Scalar product alpha ⊗ A: alpha added to every finite entry."""
        return MaxPlusMatrix(
            [[otimes(alpha, v) for v in row] for row in self.entries]
        )

    def power(self, k: int) -> "MaxPlusMatrix":
        """k-fold max-plus power, A^⊗0 = identity."""
        if not self.is_square():
            raise DimensionError("power of a non-square matrix")
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MaxPlusMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    __pow__ = power

    def has_positive_circuit(self) -> bool:
        """True when some circuit of the precedence graph has weight > 0.

        A positive circuit exists iff some diagonal entry of A^⊗k is
        positive for some k in 1..n (an elementary positive circuit has
        length at most n, and any positive closed walk contains a positive
        elementary circuit).
        """
        if not self.is_square():
            raise DimensionError("circuit test on a non-square matrix")
        term = self
        for _ in range(self.rows):
            if any(is_finite(term[i, i]) and term[i, i] > 0 for i in range(self.rows)):
                return True
            term = term @ self
        return False

    def star(self) -> "MaxPlusMatrix":
        """Kleene star A* = ⊕_{k>=0} A^⊗k.

        When every circuit weight is <= 0 the series is exactly the finite
        sum over k = 0..n-1: any walk longer than n-1 arcs repeats a node,
        and removing the enclosed (non-positive) circuit never decreases
        the walk weight.  The precondition is verified, not assumed.
        """
        if not self.is_square():
            raise DimensionError("star of a non-square matrix")
        if self.has_positive_circuit():
            raise KleeneStarDivergenceError(
                "Kleene star diverges: the graph has a positive-weight circuit"
            )
        result = MaxPlusMatrix.identity(self.rows)
        term = MaxPlusMatrix.identity(self.rows)
        for _ in range(self.rows - 1):
            term = term @ self
            result = result + term
        return result

    def plus(self) -> "MaxPlusMatrix":
        """A⁺ = A ⊗ A*: best strictly positive-length walk weights."""
        return self @ self.star()

    def entries_exact(self) -> bool:
        return all(is_exact(v) for row in self.entries for v in row)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[scalar_to_json(v) for v in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, mode: str = "int") -> "MaxPlusMatrix":
        try:
            rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        except (KeyError, TypeError) as exc:
            raise DimensionError(f"matrix literal missing field: {exc}") from exc
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionError("matrix literal shape does not match rows/cols")
        return cls([[scalar_from_json(v, mode) for v in row] for row in entries])


# -- vectors ---------------------------------------------------------------


def unit_vector(n: int) -> Vector:
    """u: every entry equal to the multiplicative identity E = 0."""
    return (E,) * n


def vec_oplus(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    if len(u) != len(v):
        raise DimensionError("vector lengths differ")
    return tuple(oplus(a, b) for a, b in zip(u, v))


def vec_scale(alpha: Scalar, v: Sequence[Scalar]) -> Vector:
    return tuple(otimes(alpha, x) for x in v)


def vec_is_finite(v: Sequence[Scalar]) -> bool:
    return all(is_finite(x) for x in v)


def require_exact(values: Iterable[Scalar], context: str) -> None:
    """Raise unless every value is an int, Fraction or EPS."""
    for v in values:
        if not is_exact(v):
            raise ExactArithmeticError(
                f"{context} requires integer or rational entries, got float {v!r}"
            )


# -- JSON scalar codec -------------------------------------------------------
#
# Wire format: EPS as the string "eps", integers as JSON numbers, rationals
# as {"num": p, "den": q}, floats (floating mode only) as JSON numbers.


def scalar_to_json(x: Scalar):
    if is_eps(x):
        return "eps"
    x = canonical(x)
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    return x


def scalar_from_json(obj, mode: str = "int") -> Scalar:
    if obj == "eps":
        return EPS
    if isinstance(obj, bool):
        raise ValueError(f"not a scalar: {obj!r}")
    if isinstance(obj, int):
        return float(obj) if mode == "float" else obj
    if isinstance(obj, float):
        if mode != "float":
            raise ValueError(
                f"float literal {obj!r} not allowed in {mode} mode"
            )
        return obj
    if isinstance(obj, dict) and set(obj) == {"num", "den"}:
        if mode == "int":
            raise ValueError("rational literal not allowed in int mode")
        frac = Fraction(obj["num"], obj["den"])
        return float(frac) if mode == "float" else canonical(frac)
    raise ValueError(f"not a scalar: {obj!r}")


def format_scalar(x: Scalar) -> str:
    """Compact text form used in CSV files and diagnostics."""
    if is_eps(x):
        return "eps"
    x = canonical(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x) if isinstance(x, float) else str(x)
