"""Scalar, vector and matrix arithmetic over the max-plus semiring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_ca.errors import (
    DimensionError,
    ExactArithmeticError,
    KleeneStarDivergenceError,
)
from tropical_ca.semiring import (
    E,
    EPS,
    MaxPlusMatrix,
    canonical,
    format_scalar,
    is_eps,
    is_exact,
    neg,
    oplus,
    oplus_all,
    otimes,
    require_exact,
    scalar_from_json,
    scalar_to_json,
    unit_vector,
    vec_oplus,
    vec_scale,
)

from oracles import NEG_INF, grid_mul


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
    with pytest.raises(ValueError):
        neg(EPS)
    assert canonical(Fraction(6, 2)) == 3 and isinstance(canonical(Fraction(6, 2)), int)
    assert is_exact(5) and is_exact(Fraction(1, 3)) and is_exact(EPS)
    assert not is_exact(0.5)


def test_require_exact():
    require_exact([1, Fraction(1, 2), EPS], "test")
    with pytest.raises(ExactArithmeticError):
        require_exact([1, 0.5], "test")


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


# -- powers --------------------------------------------------------------------


def test_power_examples():
    A = mat((1, EPS), (4, 2))
    assert A.power(0) == MaxPlusMatrix.identity(2)
    assert A.power(1) == A
    assert A.power(5) == ((A @ A) @ (A @ A)) @ A


def test_power_errors():
    with pytest.raises(DimensionError):
        mat((1, 2)).power(2)
    with pytest.raises(ValueError):
        mat((1,)).power(-1)


def test_no_integer_overflow():
    # Python ints are unbounded, so huge products stay exact.
    A = mat((10**9,))
    assert A.power(100).entries == ((100 * 10**9,),)


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
    assert MaxPlusMatrix.epsilons(2, 2).plus() == MaxPlusMatrix.epsilons(2, 2)
    assert mat((0,)).plus().entries == ((0,),)


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
    assert A.power(j + k) == A.power(j) @ A.power(k)


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
    with pytest.raises(ValueError):
        scalar_from_json(0.5, "int")
    with pytest.raises(ValueError):
        scalar_from_json({"num": 1, "den": 2}, "int")
    assert scalar_from_json({"num": 1, "den": 2}, "rational") == Fraction(1, 2)
    assert scalar_from_json({"num": 1, "den": 2}, "float") == 0.5
    assert scalar_from_json(3, "float") == 3.0
    with pytest.raises(ValueError):
        scalar_from_json(True, "int")
    with pytest.raises(ValueError):
        scalar_from_json("nope", "int")


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


# -- vectors ----------------------------------------------------------------------


def test_vector_helpers():
    assert unit_vector(3) == (0, 0, 0)
    assert vec_oplus((1, EPS), (EPS, 2)) == (1, 2)
    assert vec_scale(2, (1, EPS)) == (3, EPS)
    with pytest.raises(DimensionError):
        vec_oplus((1,), (1, 2))
