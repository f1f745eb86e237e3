"""Scalar, vector and matrix arithmetic over the max-plus semiring."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_ca import semiring
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
    scalar_from_json,
    scalar_to_json,
    unit_vector,
)
from tropical_ca.trajectory import iter_states, iterate

from oracles import (
    NEG_INF,
    circuit_weight,
    dense,
    elementary_circuits,
    grid_apply,
    grid_arcs,
    grid_identity,
    grid_mul,
    grid_oplus,
    grid_power,
    grid_star,
    mat_plus,
    vec_oplus,
    vec_scale,
)


def mat(*rows):
    return MaxPlusMatrix(rows)


def identity(n):
    return MaxPlusMatrix(grid_identity(n))


def epsilons(n):
    """The n x n matrix with no arc."""
    return MaxPlusMatrix.from_arcs([()] * n)


# -- scalars ---------------------------------------------------------------


# The scalar operations live in the one kernel: a row (a, b) applied to
# (0, 0) is a ⊕ b, and a 1 x 1 matrix (a) applied to (b) is a ⊗ b.


def test_oplus_examples():
    assert mat((3, 5)).apply((0, 0)) == (5,)
    assert mat((EPS, 7)).apply((0, 0)) == (7,)
    assert mat((7, EPS)).apply((0, 0)) == (7,)
    assert is_eps(mat((EPS, EPS)).apply((0, 0))[0])


def test_otimes_examples():
    assert mat((3,)).apply((5,)) == (8,)
    assert is_eps(mat((EPS,)).apply((7,))[0])
    assert is_eps(mat((7,)).apply((EPS,))[0])
    assert mat((E,)).apply((9,)) == (9,)


def test_scalar_helpers():
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


# -- mat_mul ------------------------------------------------------------------


def test_mat_mul_identity():
    A = mat((1, EPS), (4, 2))
    assert identity(2) @ A == A
    assert A @ identity(2) == A


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
        assert dense(got) == want


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat((1, 2)) @ mat((1, 2))
    with pytest.raises(DimensionError):
        mat((1, 2)).apply((1, 2, 3))


# -- powers (against the grid reference in tests/oracles.py) --------------------


def test_power_examples():
    A = mat((1, EPS), (4, 2))
    a = dense(A)
    assert grid_power(a, 0) == grid_identity(2)
    assert grid_power(a, 1) == a
    assert dense(((A @ A) @ (A @ A)) @ A) == grid_power(a, 5)


def test_no_integer_overflow():
    # Python ints are unbounded, so huge products stay exact.
    A = power = mat((10**9,))
    for _ in range(99):
        power = power @ A
    assert dense(power) == [[100 * 10**9]]


# -- Kleene star -----------------------------------------------------------------


def test_star_of_all_eps_is_identity():
    assert epsilons(3).star() == identity(3)


def test_star_two_node_example():
    # Arcs 1 -> 2 weight -1 and 2 -> 1 weight -2: zero diagonal, the
    # off-diagonal entries are the single-arc path weights.
    A = mat((EPS, -2), (-1, EPS))
    assert dense(A.star()) == [[0, -2], [-1, 0]]


def test_star_refuses_positive_circuit():
    with pytest.raises(KleeneStarDivergenceError):
        mat((1,)).star()
    with pytest.raises(KleeneStarDivergenceError):
        mat((EPS, 3), (-2, EPS)).star()  # circuit weight 1 > 0


def test_star_of_normalized_matrix_converges():
    # A = ((eps, 3), (7, eps)) less its maximum circuit mean 5.
    ahat = mat((EPS, 3 - 5), (7 - 5, EPS))
    assert dense(ahat.star()) == [[0, -2], [2, 0]]


def test_star_tests_the_circuits_in_its_column_searches(monkeypatch):
    """The star runs no circuit test of its own: the longest-path search
    of each column raises on a positive circuit it reaches.  Here the only
    one, 2 -> 3 -> 2 of weight 1, is reached from columns 2 and 3 alone;
    columns 0 and 1 settle, and column 2 raises."""

    def no_circuit_test(self):
        raise AssertionError("star ran a separate circuit test")

    monkeypatch.setattr(MaxPlusMatrix, "has_positive_circuit", no_circuit_test)
    starts = []
    search = semiring.longest_paths

    def recorded(succ, z):
        starts.append(z.index(E))
        return search(succ, z)

    monkeypatch.setattr(semiring, "longest_paths", recorded)
    assert dense(mat((EPS, -2), (-1, EPS)).star()) == [[0, -2], [-1, 0]]
    A = mat(
        (EPS, -3, EPS, 0),
        (1, EPS, EPS, EPS),
        (EPS, EPS, EPS, -1),
        (EPS, EPS, 2, EPS),
    )
    starts.clear()
    with pytest.raises(KleeneStarDivergenceError, match="positive-weight circuit"):
        A.star()
    assert starts == [0, 1, 2]


def test_plus_examples():
    assert mat_plus([[NEG_INF] * 2] * 2) == [[NEG_INF] * 2] * 2
    assert mat_plus([[0]]) == [[0]]


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
    assert (A @ B) @ C == A @ (B @ C)
    b_plus_c = MaxPlusMatrix(grid_oplus(dense(B), dense(C)))
    assert dense(A @ b_plus_c) == grid_oplus(dense(A @ B), dense(A @ C))
    E_n = identity(A.rows)
    Z = epsilons(A.rows)
    assert E_n @ A == A and A @ E_n == A
    assert Z @ A == Z and A @ Z == Z


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(matrices),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_power_addition_law(A, j, k):
    a = dense(A)
    product = MaxPlusMatrix(grid_power(a, j)) @ MaxPlusMatrix(grid_power(a, k))
    assert dense(product) == grid_power(a, j + k)


def nonpositive_matrices(n):
    entry = st.one_of(st.just(EPS), st.integers(min_value=-9, max_value=0))
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(MaxPlusMatrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(nonpositive_matrices))
def test_star_fixed_point(A):
    # All entries <= 0, so every circuit weight is <= 0 and A* exists.
    star = dense(A.star())
    assert grid_oplus(grid_identity(A.rows), grid_mul(dense(A), star)) == star


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
    # The cap reads the exponent of the last digit: -2.5E+1001 is -25·10^1000.
    assert scalar_from_json(Decimal(f"-2.5E+{cap + 1}"), "rational") == -25 * 10**cap
    for bad in (f"1e-{cap + 1}", f"1e{cap + 1}", "1e-1000000000", "1." + "0" * 1000,
                "NaN", "Infinity"):
        with pytest.raises(ScalarError):
            scalar_from_json(Decimal(bad), "rational")


def matrix_literal(A):
    """The JSON matrix literal of A, written with the scalar codec."""
    return {"rows": A.rows, "cols": A.cols,
            "entries": [[scalar_to_json(v) for v in row] for row in dense(A)]}


def test_matrix_json_round_trip():
    A = mat((1, EPS), (Fraction(3, 2), 0))
    again = MaxPlusMatrix.from_json_dict(matrix_literal(A), "rational")
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
def grids(draw, ints=False, max_size=6):
    """A square grid of 1 to ``max_size`` rows, about one in four with no
    arc."""
    n = draw(st.integers(1, max_size))
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
    from_grid = MaxPlusMatrix(grid)
    sparse = MaxPlusMatrix.from_arcs(pairs)
    for A in (from_grid, sparse):
        assert (A.rows, A.cols) == (n, n)
        assert A.finite_rows() == tuple(
            tuple((j, v) for j, v in enumerate(row) if v != NEG_INF) for row in want
        )
        view = dense(A)
        assert view == want
        assert [list(map(type, row)) for row in view] == [list(map(type, row)) for row in want]
        again = MaxPlusMatrix.from_json_dict(matrix_literal(A), "rational")
        assert again == A and hash(again) == hash(A)
    assert from_grid == sparse and hash(from_grid) == hash(sparse)
    # One entry changed, or the same arcs in a wider matrix: not equal.
    i, j = rnd.randrange(n), rnd.randrange(n)
    changed = [list(row) for row in want]
    changed[i][j] = 10 if want[i][j] == NEG_INF else NEG_INF
    assert MaxPlusMatrix(changed) != sparse
    assert MaxPlusMatrix.from_arcs(pairs, n + 1) != sparse


def test_from_arcs_checks_its_columns():
    A = MaxPlusMatrix.from_arcs([[(1, 2), (0, Fraction(4, 2))], [(0, EPS)]])
    assert A == mat((2, 2), (EPS, EPS))
    assert type(A.finite_rows()[0][0][1]) is int
    wide = MaxPlusMatrix.from_arcs([[(2, 5)]], 3)
    assert (wide.rows, wide.cols) == (1, 3) and dense(wide) == [[EPS, EPS, 5]]
    # repr lists each row's arcs as column:weight, "-" for a row with none.
    halves = MaxPlusMatrix.from_arcs([[(2, 5), (0, Fraction(1, 2))], []], 3)
    assert repr(halves) == "MaxPlusMatrix(2x3: 0:1/2 2:5; -)"
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


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda ints: grids(ints, max_size=7)), st.booleans())
def test_star_and_circuit_test_match_the_grid_oracles(grid, wide):
    """has_positive_circuit and star step the arcs; the references here
    enumerate the elementary circuits and sum the dense powers
    A^0 ⊕ ... ⊕ A^(n-1), on ints, Fractions and EPS.  A diverging star
    and a non-square matrix raise with their messages."""
    n = len(grid)
    if wide:
        A = MaxPlusMatrix.from_arcs(MaxPlusMatrix(grid).finite_rows(), n + 1)
        with pytest.raises(DimensionError, match="circuit test on a non-square matrix"):
            A.has_positive_circuit()
        with pytest.raises(DimensionError, match="star of a non-square matrix"):
            A.star()
        return
    A = MaxPlusMatrix(grid)
    arcs = grid_arcs(grid)
    positive = any(circuit_weight(c, arcs) > 0 for c in elementary_circuits(n, arcs))
    assert A.has_positive_circuit() == positive
    if positive:
        with pytest.raises(KleeneStarDivergenceError, match="positive-weight circuit"):
            A.star()
        return
    want = [[lowest_terms(v) for v in row] for row in grid_star(grid)]
    got = dense(A.star())
    assert got == want
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]


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
