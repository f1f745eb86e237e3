"""Network topologies, timing parameters and the timing dependency matrix."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from tropical_ca.errors import NetworkError, ScalarError
from tropical_ca.network import (
    NetworkSpec,
    TimingParameters,
    build_p,
    explicit_network,
    load_network,
    network_from_json_dict,
    random_parameters,
    regular_ring,
    validate_timing,
)
from tropical_ca.semiring import EPS, MaxPlusMatrix, is_eps, unit_vector
from tropical_ca.spectral import max_cycle_mean
from tropical_ca.trajectory import iterate

from oracles import NEG_INF, dense, grid_mul, is_irreducible, transmission_grid


# -- topology ----------------------------------------------------------------


def test_ring_20_3_neighbourhoods():
    spec = regular_ring(20, 3)
    assert spec.neighbourhoods() == [((i - 1) % 20, i, (i + 1) % 20) for i in range(20)]
    assert spec.is_three_ring()


def test_ring_n1_isolated_self_loops():
    spec = regular_ring(4, 1)
    assert spec.arcs == ((0, 0), (1, 1), (2, 2), (3, 3))


def test_ring_full_neighbourhood():
    spec = regular_ring(5, 5)
    assert len(spec.arcs) == 25
    assert not spec.is_three_ring()


def test_ring_rejects_bad_n():
    with pytest.raises(NetworkError):
        regular_ring(10, 4)
    with pytest.raises(NetworkError):
        regular_ring(3, 5)
    with pytest.raises(NetworkError):
        regular_ring(0, 1)


def test_explicit_network_validation():
    spec = explicit_network(3, [(0, 1), (1, 2), (2, 0)])
    assert spec.neighbourhoods() == [(2,), (0,), (1,)]
    with pytest.raises(NetworkError):
        explicit_network(2, [(0, 5)])
    with pytest.raises(NetworkError):
        NetworkSpec(2, ((0, 1), (0, 1)))


# -- building P --------------------------------------------------------------------


def test_build_p_single_cell():
    spec = regular_ring(1, 1)
    params = TimingParameters.create((4,), {(0, 0): 2})
    P = build_p(spec, params)
    assert dense(P) == [[6]]


def test_build_p_two_route_consistency():
    rng = random.Random(9)
    for _ in range(10):
        size = rng.randint(2, 8)
        spec = regular_ring(size, 3) if size >= 3 else regular_ring(size, 1)
        params = random_parameters(spec, rng.randint(0, 999), (1, 30), (1, 10))
        P = dense(build_p(spec, params))
        tau = params.tau
        arcs = set(spec.arcs)
        for i in range(size):
            for j in range(size):
                if (j, i) in arcs:
                    assert P[i][j] == params.xi[i] + tau[(i, j)]
                else:
                    assert is_eps(P[i][j])


def test_build_p_equals_diagonal_times_t():
    spec = regular_ring(6, 3)
    params = random_parameters(spec, 77, (1, 30), (1, 10))
    a_xi = [
        [x if i == j else NEG_INF for j in range(6)] for i, x in enumerate(params.xi)
    ]
    T = transmission_grid(6, params.tau)
    assert dense(build_p(spec, params)) == grid_mul(a_xi, T)


def test_ring_p_irreducible():
    spec = regular_ring(10, 3)
    P = build_p(spec, random_parameters(spec, 4, (1, 30), (1, 10)))
    assert is_irreducible(P)


def test_self_loop_lower_bound_on_eigenvalue():
    spec = regular_ring(8, 3)
    params = random_parameters(spec, 15, (1, 30), (1, 10))
    P = build_p(spec, params)
    tau = params.tau
    best_loop = max(params.xi[i] + tau[(i, i)] for i in range(8))
    assert max_cycle_mean(P) >= best_loop


# -- timing validation ---------------------------------------------------------------


def test_validate_timing_errors():
    spec = regular_ring(3, 3)
    good = random_parameters(spec, 1, (1, 5), (0, 5))
    validate_timing(spec, good)

    short = TimingParameters.create((1, 1), good.tau)
    with pytest.raises(NetworkError):
        validate_timing(spec, short)

    with pytest.raises(NetworkError):
        validate_timing(spec, TimingParameters.create((0, 1, 1), good.tau))

    missing = dict(good.tau)
    missing.pop((0, 0))
    with pytest.raises(NetworkError):
        validate_timing(spec, TimingParameters.create(good.xi, missing))

    negative = dict(good.tau)
    negative[(0, 0)] = -1
    with pytest.raises(NetworkError):
        validate_timing(spec, TimingParameters.create(good.xi, negative))


def test_validate_timing_rejects_tau_off_arc():
    # Cell 0 never reads cell 1, so tau keyed (0, 1) has no arc to live on.
    line = explicit_network(2, [(0, 0), (1, 1), (0, 1)])
    tau = {(0, 0): 1, (1, 1): 1, (1, 0): 1, (0, 1): 9}
    with pytest.raises(NetworkError):
        validate_timing(line, TimingParameters.create((1, 1), tau))


# -- random parameters -----------------------------------------------------------------


def test_random_parameters_deterministic():
    spec = regular_ring(10, 3)
    a = random_parameters(spec, 42, (1, 30), (1, 10))
    b = random_parameters(spec, 42, (1, 30), (1, 10))
    assert a == b
    c = random_parameters(spec, 43, (1, 30), (1, 10))
    assert a != c


def test_random_parameters_degenerate_ranges():
    spec = regular_ring(5, 3)
    params = random_parameters(spec, 0, (5, 5), (2, 2))
    assert params.xi == (5,) * 5
    assert all(v == 2 for v in params.tau.values())


def test_random_parameters_within_ranges():
    spec = regular_ring(10, 3)
    params = random_parameters(spec, 8, (1, 30), (1, 10))
    assert all(1 <= x <= 30 for x in params.xi)
    assert all(1 <= v <= 10 for v in params.tau.values())
    assert set(params.tau) == {(i, j) for (j, i) in spec.arcs}


def test_random_parameters_bad_ranges():
    spec = regular_ring(3, 3)
    with pytest.raises(NetworkError):
        random_parameters(spec, 1, (5, 4), (1, 2))
    with pytest.raises(NetworkError):
        random_parameters(spec, 1, (0, 4), (1, 2))
    with pytest.raises(NetworkError):
        random_parameters(spec, 1, (1, 4), (-1, 2))
    with pytest.raises(NetworkError):
        random_parameters(spec, 1, (1.0, 4), (1, 2))


# -- network files ---------------------------------------------------------------


def test_load_network_regular_file(tmp_path):
    # tau[j, i] = 10 j + i on arc j -> i, 1-based: the arcs read back as
    # (j - 1, i - 1) and tau keyed (i - 1, j - 1).
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "N": 4,
        "topology": {"regular": {"n": 3}},
        "xi": [1, 2, 3, 4],
        "tau": [[4, 1, 41], [1, 1, 11], [2, 1, 21], [1, 2, 12], [2, 2, 22], [3, 2, 32],
                [2, 3, 23], [3, 3, 33], [4, 3, 43], [3, 4, 34], [4, 4, 44], [1, 4, 14]],
    }))
    spec, params = load_network(path)
    assert spec == regular_ring(4, 3)
    tau = {(i, j): 10 * (j + 1) + i + 1 for (j, i) in spec.arcs}
    assert params == TimingParameters.create((1, 2, 3, 4), tau)


def test_load_network_explicit_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "N": 3,
        "topology": {"arcs": [[1, 1], [2, 2], [3, 3], [1, 2], [2, 3], [3, 1]]},
        "xi": [2, 4, 6],
        "tau": [[1, 1, 11], [2, 2, 22], [3, 3, 33], [1, 2, 12], [2, 3, 23], [3, 1, 31]],
    }))
    spec, params = load_network(path)
    assert spec == explicit_network(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)])
    assert spec.regular_n is None
    tau = {(i, j): 10 * (j + 1) + i + 1 for (j, i) in spec.arcs}
    assert params == TimingParameters.create((2, 4, 6), tau)


def test_load_rejects_tau_on_non_arc():
    doc = {
        "N": 2,
        "topology": {"arcs": [[1, 1], [2, 2], [1, 2]]},
        "xi": [1, 1],
        "tau": [[1, 1, 1], [2, 2, 1], [1, 2, 1], [2, 1, 5]],
    }
    with pytest.raises(NetworkError):
        network_from_json_dict(doc)


def test_load_tau_matrix_with_eps():
    doc = {
        "N": 2,
        "xi": [2, 3],
        "tau_matrix": {
            "rows": 2,
            "cols": 2,
            "entries": [[1, "eps"], [4, 5]],
        },
    }
    spec, params = network_from_json_dict(doc)
    assert spec.arcs == ((0, 0), (0, 1), (1, 1))
    P = build_p(spec, params)
    assert dense(P) == [[3, EPS], [7, 8]]


def test_load_missing_fields():
    with pytest.raises(NetworkError):
        network_from_json_dict({"topology": {"regular": {"n": 3}}})
    with pytest.raises(NetworkError):
        network_from_json_dict({"N": 3})
    with pytest.raises(NetworkError):
        network_from_json_dict(
            {"N": 3, "topology": {"regular": {"n": 3}}, "xi": [1, 1, 1]}
        )


def test_load_network_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(NetworkError):
        load_network(path)


def test_network_file_decimals_read_exactly(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(
        '{"N": 1, "topology": {"regular": {"n": 1}}, "xi": [0.1], "tau": [[1, 1, 2.5e-1]]}',
        encoding="utf-8",
    )
    _spec, params = load_network(path, "rational")
    assert params.xi == (Fraction(1, 10),) and params.tau == {(0, 0): Fraction(1, 4)}
    with pytest.raises(NetworkError, match="int mode"):
        load_network(path, "int")
    with pytest.raises(ScalarError):
        TimingParameters.create((0.1,), {(0, 0): 0})


def test_ring_strong_connectivity_n3_and_up():
    # Radius >= 1 keeps the ring strongly connected; n = 1 with N > 1
    # degenerates to isolated self-loops and is reducible.
    for size in (3, 4, 7, 12):
        spec = regular_ring(size, 3)
        params = random_parameters(spec, 2, (1, 5), (0, 3))
        assert is_irreducible(build_p(spec, params))
    lonely = regular_ring(1, 1)
    params = random_parameters(lonely, 2, (1, 5), (0, 3))
    assert is_irreducible(build_p(lonely, params))
    split = regular_ring(2, 1)
    params = random_parameters(split, 2, (1, 5), (0, 3))
    assert not is_irreducible(build_p(split, params))


def test_p_holds_its_arcs_not_a_grid(monkeypatch):
    """build_p and a short run on a 5000-cell 3-ring hold P's 15 000 arcs
    and a few states, well under the 25 M entries of a dense P, and never
    build a matrix from a dense grid."""

    def refuse(self, entries):
        raise AssertionError("a matrix was built from a dense n x n grid")

    monkeypatch.setattr(MaxPlusMatrix, "__init__", refuse)
    n = 5000
    spec = regular_ring(n, 3)
    params = random_parameters(spec, 5, (1, 30), (1, 10))
    tracemalloc.start()
    try:
        P = build_p(spec, params)
        traj = iterate(P, unit_vector(n), 3)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert sum(map(len, P.finite_rows())) == 3 * n
    row = dict(P.finite_rows()[0])
    assert row[n - 1] == params.xi[0] + params.tau[(0, n - 1)]
    assert traj.states[3][0] == max(
        traj.states[2][j] + row[j] for j in spec.neighbourhoods()[0]
    )
