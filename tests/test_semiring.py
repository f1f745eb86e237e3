"""Scalar, vector and matrix arithmetic over the max-plus semiring."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_ca.errors import DimensionError, KleeneStarDivergenceError, ScalarError
from tropical_ca.semiring import (
    E,
    EPS,
    MaxPlusMatrix,
    DECIMAL_CAP,
    canonical,
    exact,
    format_scalar,
    is_eps,
    neg,
    oplus,
    oplus_all,
    otimes,
    scalar_from_json,
    scalar_to_json,
    unit_vector,
)
from tropical_ca.trajectory import iter_states, iterate

from oracles import (
    NEG_INF,
    grid_apply,
    grid_mul,
    mat_plus,
    mat_power,
    vec_oplus,
    vec_scale,
)


def mat(*rows):
    return MaxPlusMatrix(rows)


# -- scalars ---------------------------------------------------------------


def test_oplus_examples():
    assert oplus(3, 5) == 5
    assert oplus(EPS, 7) == 7
    assert oplus(7, EPS) == 7
    assert is_eps(oplus(EPS, EPS))


def test_otimes_examples():
    assert otimes(3, 5) == 8
    assert is_eps(otimes(EPS, 7))
    assert is_eps(otimes(7, EPS))
    assert otimes(E, 9) == 9


def test_scalar_helpers():
    assert oplus_all([EPS, 2, 5, 1]) == 5
    assert is_eps(oplus_all([]))
    assert neg(3) == -3
    with pytest.raises(ScalarError):
        neg(EPS)
    assert canonical(Fraction(6, 2)) == 3 and isinstance(canonical(Fraction(6, 2)), int)


def test_require_exact():
    assert exact(5) == 5 and exact(Fraction(1, 3)) == Fraction(1, 3)
    assert is_eps(exact(EPS))
    assert exact(Fraction(6, 2)) == 3 and isinstance(exact(Fraction(6, 2)), int)
    for bad in (0.5, 2.0, float("nan"), float("inf")):
        with pytest.raises(ScalarError):
            exact(bad)
        with pytest.raises(ScalarError):
            mat((1, bad))


# -- matrix construction -----------------------------------------------------


def test_matrix_shape_checks():
    with pytest.raises(DimensionError):
        MaxPlusMatrix([])
    with pytest.raises(DimensionError):
        MaxPlusMatrix([[1, 2], [3]])


def test_matrix_immutable():
    A = mat((1, EPS), (EPS, 2))
    with pytest.raises(AttributeError):
        A.rows = 5


def test_identity_and_diagonal():
    assert MaxPlusMatrix.identity(2).entries == ((0, EPS), (EPS, 0))
    assert MaxPlusMatrix.diagonal((2, 3)).entries == ((2, EPS), (EPS, 3))
    assert MaxPlusMatrix.epsilons(2, 3).entries == ((EPS,) * 3,) * 2


# -- mat_add ------------------------------------------------------------------


def test_mat_add_examples():
    A = mat((1, EPS), (EPS, 2))
    assert (A + A) == A  # oplus is idempotent
    B = mat((0, 0), (EPS, EPS))
    assert (A + B).entries == ((1, 0), (EPS, 2))
    Z = MaxPlusMatrix.epsilons(2, 2)
    assert (A + Z) == A


def test_mat_add_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat((1, 2)) + mat((1, 2), (3, 4))


# -- mat_mul ------------------------------------------------------------------


def test_mat_mul_identity():
    A = mat((1, EPS), (4, 2))
    assert MaxPlusMatrix.identity(2) @ A == A
    assert A @ MaxPlusMatrix.identity(2) == A


def test_diagonal_acts_as_shift():
    D = mat((2, EPS), (EPS, 3))
    assert D.apply((1, 1)) == (3, 4)


def test_mat_mul_against_loop_oracle():
    import random

    rng = random.Random(5)
    for _ in range(25):
        a = [[rng.randint(-9, 9) if rng.random() < 0.7 else NEG_INF for _ in range(4)] for _ in range(4)]
        b = [[rng.randint(-9, 9) if rng.random() < 0.7 else NEG_INF for _ in range(4)] for _ in range(4)]
        got = MaxPlusMatrix(a) @ MaxPlusMatrix(b)
        want = grid_mul(a, b)
        assert [list(r) for r in got.entries] == want


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat((1, 2)) @ mat((1, 2))
    with pytest.raises(DimensionError):
        mat((1, 2)).apply((1, 2, 3))


# -- powers (by the dense reference in tests/oracles.py) ------------------------


def test_power_examples():
    A = mat((1, EPS), (4, 2))
    assert mat_power(A, 0) == MaxPlusMatrix.identity(2)
    assert mat_power(A, 1) == A
    assert mat_power(A, 5) == ((A @ A) @ (A @ A)) @ A


def test_no_integer_overflow():
    # Python ints are unbounded, so huge products stay exact.
    A = mat((10**9,))
    assert mat_power(A, 100).entries == ((100 * 10**9,),)


# -- Kleene star -----------------------------------------------------------------


def test_star_of_all_eps_is_identity():
    assert MaxPlusMatrix.epsilons(3, 3).star() == MaxPlusMatrix.identity(3)


def test_star_two_node_example():
    # Arcs 1 -> 2 weight -1 and 2 -> 1 weight -2: zero diagonal, the
    # off-diagonal entries are the single-arc path weights.
    A = mat((EPS, -2), (-1, EPS))
    assert A.star().entries == ((0, -2), (-1, 0))


def test_star_refuses_positive_circuit():
    with pytest.raises(KleeneStarDivergenceError):
        mat((1,)).star()
    with pytest.raises(KleeneStarDivergenceError):
        mat((EPS, 3), (-2, EPS)).star()  # circuit weight 1 > 0


def test_star_of_normalized_matrix_converges():
    A = mat((EPS, 3), (7, EPS))
    ahat = A.scale(-5)  # subtract the maximum circuit mean
    assert ahat.star().entries == ((0, -2), (2, 0))


def test_plus_examples():
    assert mat_plus(MaxPlusMatrix.epsilons(2, 2)) == MaxPlusMatrix.epsilons(2, 2)
    assert mat_plus(mat((0,))).entries == ((0,),)


def test_scale_examples():
    A = mat((1, EPS))
    assert A.scale(0) == A
    assert A.scale(2).entries == ((3, EPS),)


# -- algebraic laws (property tests) ----------------------------------------------


def scalar_entries():
    return st.one_of(st.just(EPS), st.integers(min_value=-9, max_value=9))


def matrices(n):
    return st.lists(
        st.lists(scalar_entries(), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(MaxPlusMatrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(matrices(n), matrices(n), matrices(n))))
def test_semiring_laws(abc):
    A, B, C = abc
    assert A + B == B + A
    assert (A + B) + C == A + (B + C)
    assert A + A == A
    assert (A @ B) @ C == A @ (B @ C)
    assert A @ (B + C) == (A @ B) + (A @ C)
    E_n = MaxPlusMatrix.identity(A.rows)
    Z = MaxPlusMatrix.epsilons(A.rows, A.rows)
    assert E_n @ A == A and A @ E_n == A
    assert Z @ A == Z and A @ Z == Z


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(matrices),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_power_addition_law(A, j, k):
    assert mat_power(A, j + k) == mat_power(A, j) @ mat_power(A, k)


def nonpositive_matrices(n):
    entry = st.one_of(st.just(EPS), st.integers(min_value=-9, max_value=0))
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(MaxPlusMatrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(nonpositive_matrices))
def test_star_fixed_point(A):
    # All entries <= 0, so every circuit weight is <= 0 and A* exists.
    star = A.star()
    assert (A @ star) + MaxPlusMatrix.identity(A.rows) == star


# -- serialization ------------------------------------------------------------------


def test_scalar_json_round_trip():
    for value in (EPS, 0, -3, 17, Fraction(7, 2)):
        wire = scalar_to_json(value)
        mode = "rational" if isinstance(value, Fraction) else "int"
        assert canonical(scalar_from_json(wire, mode)) == canonical(value)


def test_scalar_json_mode_policing():
    with pytest.raises(ScalarError):
        scalar_from_json(Decimal("0.5"), "int")
    with pytest.raises(ScalarError):
        scalar_from_json(Decimal("2.0"), "int")
    with pytest.raises(ScalarError):
        scalar_from_json({"num": 1, "den": 2}, "int")
    assert scalar_from_json({"num": 1, "den": 2}, "rational") == Fraction(1, 2)
    for mode in ("int", "rational"):
        for bad in (True, "nope", 0.5, float("nan"), {"num": 1, "den": 0}):
            with pytest.raises(ScalarError):
                scalar_from_json(bad, mode)


def test_decimal_literals_read_exactly_in_rational_mode():
    assert scalar_from_json(Decimal("0.1"), "rational") == Fraction(1, 10)
    two = scalar_from_json(Decimal("2.0"), "rational")
    assert two == 2 and type(two) is int
    assert scalar_from_json(Decimal("-1.25e2"), "rational") == -125
    cap = DECIMAL_CAP
    assert scalar_from_json(Decimal(f"1e-{cap}"), "rational") == Fraction(1, 10**cap)
    for bad in (f"1e-{cap + 1}", f"1e{cap + 1}", "1e-1000000000", "1." + "0" * 1000,
                "NaN", "Infinity"):
        with pytest.raises(ScalarError):
            scalar_from_json(Decimal(bad), "rational")


def test_matrix_json_round_trip():
    A = mat((1, EPS), (Fraction(3, 2), 0))
    again = MaxPlusMatrix.from_json_dict(A.to_json_dict(), "rational")
    assert again == A
    with pytest.raises(DimensionError):
        MaxPlusMatrix.from_json_dict({"rows": 2, "cols": 2, "entries": [[1, 2]]})


def test_format_scalar():
    assert format_scalar(EPS) == "eps"
    assert format_scalar(5) == "5"
    assert format_scalar(Fraction(7, 2)) == "7/2"
    assert format_scalar(Fraction(4, 2)) == "2"


# -- the arc store ---------------------------------------------------------------


def finite_entries(ints=False):
    """Small ints and, unless ``ints``, Fractions, some of them integral."""
    finite = st.integers(-9, 9)
    if ints:
        return finite
    return st.one_of(
        finite, st.builds(Fraction, st.integers(-20, 20), st.integers(1, 4))
    )


def exact_entries(ints=False):
    """EPS or a :func:`finite_entries` value."""
    return st.one_of(st.just(EPS), finite_entries(ints))


@st.composite
def grids(draw, ints=False):
    """A square grid of 1 to 6 rows, about one in four with no arc."""
    n = draw(st.integers(1, 6))
    return [
        [EPS] * n
        if draw(st.integers(0, 3)) == 0
        else draw(st.lists(exact_entries(ints), min_size=n, max_size=n))
        for _ in range(n)
    ]


def lowest_terms(v):
    """The library's canonical form, written out: an integral Fraction is
    an int."""
    return int(v) if type(v) is Fraction and v.denominator == 1 else v


@settings(max_examples=200, deadline=None)
@given(grids(), st.randoms(use_true_random=False))
def test_arc_store_agrees_with_dense_constructor(grid, rnd):
    n = len(grid)
    want = [[lowest_terms(v) for v in row] for row in grid]
    pairs = []
    for row in grid:
        row_pairs = list(enumerate(row))  # EPS pairs too: no arc
        rnd.shuffle(row_pairs)
        pairs.append(row_pairs)
    dense = MaxPlusMatrix(grid)
    sparse = MaxPlusMatrix.from_arcs(pairs)
    for A in (dense, sparse):
        assert (A.rows, A.cols) == (n, n)
        assert A.finite_rows() == tuple(
            tuple((j, v) for j, v in enumerate(row) if v != NEG_INF) for row in want
        )
        for i in range(n):
            assert A.row(i) == tuple(want[i])
            assert A.column(i) == tuple(row[i] for row in want)
            for j in range(n):
                assert A[i, j] == want[i][j] and type(A[i, j]) is type(want[i][j])
        assert A.entries == tuple(map(tuple, want))
        again = MaxPlusMatrix.from_json_dict(A.to_json_dict(), "rational")
        assert again == A and hash(again) == hash(A)
    assert dense == sparse and hash(dense) == hash(sparse)
    # One entry changed, or the same arcs in a wider matrix: not equal.
    i, j = rnd.randrange(n), rnd.randrange(n)
    changed = [list(row) for row in want]
    changed[i][j] = 10 if want[i][j] == NEG_INF else NEG_INF
    assert MaxPlusMatrix(changed) != sparse
    assert MaxPlusMatrix.from_arcs(pairs, n + 1) != sparse


def test_from_arcs_checks_its_columns():
    A = MaxPlusMatrix.from_arcs([[(1, 2), (0, Fraction(4, 2))], [(0, EPS)]])
    assert A == mat((2, 2), (EPS, EPS))
    assert type(A[0, 0]) is int
    wide = MaxPlusMatrix.from_arcs([[(2, 5)]], 3)
    assert (wide.rows, wide.cols) == (1, 3) and wide.row(0) == (EPS, EPS, 5)
    for rows, cols in (
        ([[(2, 1)], []], None),  # past the last column
        ([[(-1, 1)]], None),
        ([[(0, 1), (0, 2)]], None),  # one column twice
        ([[(0.0, 1)]], None),
        ([], None),
        ([[]], 0),
    ):
        with pytest.raises(DimensionError):
            MaxPlusMatrix.from_arcs(rows, cols)
    with pytest.raises(ScalarError):
        MaxPlusMatrix.from_arcs([[(0, 0.5)]])


# -- the one kernel ------------------------------------------------------------------


def start_vectors(n, ints):
    return st.lists(finite_entries(ints), min_size=n, max_size=n).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(lambda ints: st.tuples(st.just(ints), grids(ints))),
       st.data())
def test_one_kernel_matches_grid_apply(case, data):
    """P.apply, iter_states and iterate all step through step_arcs; each
    agrees with the textbook product, stepped up to 20 times, on int and
    rational entries, rows with no arc (EPS results) and non-integral
    starts."""
    ints, grid = case
    n = len(grid)
    x0 = data.draw(start_vectors(n, ints))
    k_max = data.draw(st.integers(0, 20))
    P = MaxPlusMatrix(grid)
    want = [[lowest_terms(v) for v in x0]]
    for _ in range(k_max):
        want.append(grid_apply(grid, want[-1]))
    applied = [tuple(want[0])]
    for _ in range(k_max):
        applied.append(P.apply(applied[-1]))
    for states in (list(iter_states(P, x0, k_max)), iterate(P, x0, k_max).states,
                   applied):
        assert len(states) == k_max + 1
        for got, expected in zip(states, want):
            assert type(got) is tuple and list(got) == expected
            assert all(type(v) is not Fraction or v.denominator != 1 for v in got)


# -- vectors ----------------------------------------------------------------------


def test_vector_helpers():
    assert unit_vector(3) == (0, 0, 0)
    assert vec_oplus((1, EPS), (EPS, 2)) == (1, 2)
    assert vec_scale(2, (1, EPS)) == (3, EPS)
    with pytest.raises(ValueError):
        vec_oplus((1,), (1, 2))
