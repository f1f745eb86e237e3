"""Precedence graphs, SCCs, eigenvalue, critical graph, cyclicity and the
eigenspace, cross-checked against exhaustive enumeration oracles."""

import random
from fractions import Fraction

import pytest

from tropical_ca.errors import (
    DimensionError,
    NoCircuitError,
    ReducibleMatrixError,
)
from tropical_ca.network import build_p, random_parameters, regular_ring
from tropical_ca.semiring import EPS, MaxPlusMatrix, otimes, unit_vector, vec_scale
from tropical_ca.spectral import (
    analyze,
    build_graph,
    critical_graph,
    cyclicity,
    eigenspace_membership,
    eigenvectors,
    is_irreducible,
    matrix_power_onset,
    max_cycle_mean,
    scc_decompose,
)

from oracles import (
    NEG_INF,
    critical_parts,
    grid_identity,
    grid_mul,
    max_circuit_mean,
    random_irreducible_grid,
    scc_partition,
)


def mat(*rows):
    return MaxPlusMatrix(rows)


# Two node-disjoint 2-circuits with means 5 and 3, joined by mean-lowering
# arcs 1 -> 2 (weight 0) and 3 -> 0 (weight 0).
TWO_CIRCUITS = mat(
    (EPS, 5, EPS, 0),
    (5, EPS, EPS, EPS),
    (EPS, 0, EPS, 3),
    (EPS, EPS, 3, EPS),
)

# Critical graph splits into a 2-circuit on {0, 1} and a 3-circuit on
# {2, 3, 4}; the joining arcs have weight -5 and stay non-critical.
TWO_MSCS = mat(
    (EPS, 1, EPS, EPS, -5),
    (1, EPS, EPS, EPS, EPS),
    (EPS, -5, EPS, EPS, 1),
    (EPS, EPS, 1, EPS, EPS),
    (EPS, EPS, EPS, 1, EPS),
)


def ring_p(size, seed, xi_range=(1, 30), tau_range=(1, 10)):
    spec = regular_ring(size, 3)
    params = random_parameters(spec, seed, xi_range, tau_range)
    return build_p(spec, params).matrix


# -- precedence graph -----------------------------------------------------------


def test_build_graph_identity():
    g = build_graph(MaxPlusMatrix.identity(2))
    assert g.arcs == ((0, 0, 0), (1, 1, 0))


def test_build_graph_empty():
    g = build_graph(MaxPlusMatrix.epsilons(3, 3))
    assert g.node_count == 3 and g.arcs == ()


def test_build_graph_ring_neighbourhoods():
    P = ring_p(20, 3)
    g = build_graph(P)
    for i in range(20):
        assert g.predecessors(i) == tuple(sorted({(i - 1) % 20, i, (i + 1) % 20}))


def test_build_graph_non_square():
    with pytest.raises(DimensionError):
        build_graph(mat((1, 2)))


def test_graph_accessors():
    g = build_graph(TWO_CIRCUITS)
    assert g.successors(1) == (0, 2)
    assert (1, 0) in g.arc_set() and (0, 2) not in g.arc_set()


# -- strongly connected components -------------------------------------------------


def test_scc_single_component_ring():
    dec = scc_decompose(build_graph(ring_p(8, 2)))
    assert len(dec.components) == 1
    assert set(dec.components[0]) == set(range(8))


def test_scc_two_disjoint_rings():
    entries = [[EPS] * 6 for _ in range(6)]
    for a, b in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)):
        entries[b][a] = 1
    dec = scc_decompose(build_graph(MaxPlusMatrix(entries)))
    assert {frozenset(c) for c in dec.components} == {
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    }
    assert dec.condensation_arcs == ()


def test_scc_against_reachability_oracle():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 8)
        entries = [
            [0 if rng.random() < 0.25 else EPS for _ in range(n)]
            for _ in range(n)
        ]
        g = build_graph(MaxPlusMatrix(entries))
        dec = scc_decompose(g)
        assert {frozenset(c) for c in dec.components} == scc_partition(
            n, [(j, i) for (j, i, _w) in g.arcs]
        )
        # Topological numbering: condensation arcs go low -> high.
        assert all(a < b for (a, b) in dec.condensation_arcs)
        for v in range(n):
            assert v in dec.components[dec.component_of[v]]


# -- irreducibility ------------------------------------------------------------------


def test_irreducible_ring():
    assert is_irreducible(ring_p(10, 4))


def test_reducible_diagonal():
    assert not is_irreducible(MaxPlusMatrix.diagonal((1, 2)))


def test_single_node_without_self_loop_is_irreducible():
    assert is_irreducible(MaxPlusMatrix.epsilons(1, 1))


# -- maximum cycle mean ----------------------------------------------------------------


def test_mcm_self_loop():
    assert max_cycle_mean(mat((5,))) == 5


def test_mcm_two_cycle():
    assert max_cycle_mean(mat((EPS, 3), (7, EPS))) == 5


def test_mcm_exact_fraction():
    value = max_cycle_mean(mat((EPS, 3), (4, EPS)))
    assert value == Fraction(7, 2) and isinstance(value, Fraction)


def test_mcm_acyclic_errors():
    with pytest.raises(NoCircuitError):
        max_cycle_mean(mat((EPS, 1), (EPS, EPS)))
    with pytest.raises(NoCircuitError):
        max_cycle_mean(MaxPlusMatrix.epsilons(1, 1))


def test_mcm_reducible_still_works():
    # Circuits never straddle components, so reducible inputs are fine.
    A = mat((2, EPS), (0, 3))
    assert max_cycle_mean(A) == 3


def test_mcm_against_enumeration_oracle():
    rng = random.Random(23)
    for trial in range(60):
        n = 2 + trial % 7
        grid = random_irreducible_grid(rng, n)
        assert max_cycle_mean(MaxPlusMatrix(grid)) == max_circuit_mean(grid)


# -- critical graph -----------------------------------------------------------------


def test_critical_single_self_loop():
    crit = critical_graph(mat((5,)))
    assert crit.nodes == (0,) and crit.arcs == ((0, 0),)
    assert crit.eigenvalue == 5


def test_critical_two_circuits():
    crit = critical_graph(TWO_CIRCUITS)
    assert crit.nodes == (0, 1)
    assert crit.arcs == ((0, 1), (1, 0))
    nodes, arcs = critical_parts([list(r) for r in TWO_CIRCUITS.entries])
    assert set(crit.nodes) == nodes and set(crit.arcs) == arcs


def test_critical_uniform_ring_is_everything():
    # With xi = c and tau = d every arc weighs c + d, so every circuit
    # attains the maximum mean and the whole graph is critical.
    spec = regular_ring(6, 3)
    P = build_p(spec, random_parameters(spec, 1, (5, 5), (2, 2))).matrix
    crit = critical_graph(P)
    assert crit.nodes == tuple(range(6))
    assert set(crit.arcs) == set(spec.arcs) and len(crit.arcs) == 18
    nodes, arcs = critical_parts([list(r) for r in P.entries])
    assert set(crit.nodes) == nodes and set(crit.arcs) == arcs


def star_column(grid, lam, r):
    """Column r of the Kleene star of the lambda-normalized grid, longhand:
    the entry-wise max of its powers 0..n-1."""
    n = len(grid)
    hat = [[w if w == NEG_INF else w - lam for w in row] for row in grid]
    column = [NEG_INF] * n
    term = grid_identity(n)
    for _ in range(n):
        column = [max(c, row[r]) for c, row in zip(column, term)]
        term = grid_mul(term, hat)
    return column


def test_critical_against_oracle_random():
    rng = random.Random(31)
    non_integer = 0
    for trial in range(70):
        n = 2 + trial % 6
        grid = random_irreducible_grid(rng, n)
        if trial >= 40:
            # Rational entries over a common denominator.
            d = rng.randint(2, 5)
            grid = [
                [w if w == NEG_INF else Fraction(w, d) for w in row] for row in grid
            ]
        A = MaxPlusMatrix(grid)
        crit = critical_graph(A)
        nodes, arcs = critical_parts(grid)
        assert set(crit.nodes) == nodes and set(crit.arcs) == arcs
        lam = max_circuit_mean(grid)
        non_integer += lam.denominator > 1
        summary = analyze(A)
        assert summary.eigenvalue == lam
        mscs = summary.critical.mscs()
        assert len(summary.eigenbasis) == len(mscs)
        for comp, vec in zip(mscs, summary.eigenbasis):
            assert list(vec) == star_column(grid, lam, comp[0])
    assert non_integer >= 20


def test_float_mode_agrees_with_exact_random():
    # Thirds are not dyadic: float rounding can leave a normalized circuit
    # an ulp above zero, which must not count as a positive circuit.
    rng = random.Random(67)
    for trial in range(120):
        n = 1 + trial % 8
        grid = random_irreducible_grid(rng, n)
        ex = analyze(MaxPlusMatrix(
            [[w if w == NEG_INF else Fraction(w, 3) for w in row] for row in grid]
        ))
        fl = analyze(MaxPlusMatrix(
            [[w if w == NEG_INF else w / 3 for w in row] for row in grid]
        ))
        assert abs(fl.eigenvalue - ex.eigenvalue) <= 1e-9
        assert fl.sigma == ex.sigma
        assert fl.critical.nodes == ex.critical.nodes
        assert fl.critical.arcs == ex.critical.arcs
        assert len(fl.eigenbasis) == len(ex.eigenbasis)
        for u, v in zip(fl.eigenbasis, ex.eigenbasis):
            assert all(abs(a - b) <= 1e-9 for a, b in zip(u, v))


def test_critical_reducible_refused():
    with pytest.raises(ReducibleMatrixError):
        critical_graph(MaxPlusMatrix.diagonal((1, 2)))


# -- cyclicity ---------------------------------------------------------------------


def test_cyclicity_self_loop():
    assert cyclicity(mat((5,))) == 1


def test_cyclicity_three_cycle():
    A = mat((EPS, EPS, 2), (2, EPS, EPS), (EPS, 2, EPS))
    assert cyclicity(A) == 3


def test_cyclicity_lcm_of_mscs():
    assert cyclicity(TWO_MSCS) == 6


def test_cyclicity_single_critical_cycle_length():
    # Critical graph a single circuit of length L gives cyclicity L.
    for L in (2, 4, 5):
        entries = [[EPS] * L for _ in range(L)]
        for t in range(L):
            entries[(t + 1) % L][t] = 1
        assert cyclicity(MaxPlusMatrix(entries)) == L


# -- eigenvectors ---------------------------------------------------------------------


def test_eigenvector_loop_with_feeding_chain():
    # Self-loop of weight 5 on node 0 with a 0-weight return chain via 1.
    A = mat((5, 0), (0, EPS))
    basis = eigenvectors(A)
    assert basis == [(0, -5)]
    assert A.apply(basis[0]) == vec_scale(5, basis[0])


def test_eigenvector_uniform_ring_unit():
    spec = regular_ring(6, 3)
    P = build_p(spec, random_parameters(spec, 1, (5, 5), (2, 2))).matrix
    u = unit_vector(6)
    assert P.apply(u) == vec_scale(7, u)
    assert eigenvectors(P)[0] == u
    assert eigenspace_membership(P, u)


def test_eigenvector_shift_closure():
    for A in (TWO_CIRCUITS, TWO_MSCS):
        summary = analyze(A)
        for v in summary.eigenbasis:
            shifted = vec_scale(4, v)
            assert A.apply(shifted) == vec_scale(
                otimes(summary.eigenvalue, 4), v
            )
            assert eigenspace_membership(A, shifted)


def test_eigen_equation_random():
    rng = random.Random(41)
    for trial in range(40):
        n = 2 + trial % 7
        A = MaxPlusMatrix(random_irreducible_grid(rng, n))
        summary = analyze(A)
        for v in summary.eigenbasis:
            assert A.apply(v) == vec_scale(summary.eigenvalue, v)


def test_membership_basis_and_combinations():
    summary = analyze(TWO_MSCS)
    assert len(summary.eigenbasis) == 2
    b0, b1 = summary.eigenbasis
    assert eigenspace_membership(TWO_MSCS, b0)
    assert eigenspace_membership(TWO_MSCS, b1)
    rng = random.Random(3)
    for _ in range(10):
        a0, a1 = rng.randint(-5, 5), rng.randint(-5, 5)
        combo = tuple(
            max(a0 + x, a1 + y) for x, y in zip(b0, b1)
        )
        assert eigenspace_membership(TWO_MSCS, combo)
        assert TWO_MSCS.apply(combo) == vec_scale(summary.eigenvalue, combo)


def test_membership_rejects_perturbation():
    A = mat((5, 0), (0, EPS))
    v = eigenvectors(A)[0]
    poked = (v[0], v[1] + 1)
    assert A.apply(poked) != vec_scale(5, poked)
    assert not eigenspace_membership(A, poked)


def test_membership_rejects_eps_entries():
    assert not eigenspace_membership(mat((5, 0), (0, EPS)), (0, EPS))


def test_column_equivalence_per_mscs():
    summary = analyze(TWO_MSCS)
    ahat = TWO_MSCS.scale(-summary.eigenvalue)
    star = ahat.star()
    same = [star[r, 0] - star[r, 1] for r in range(5)]
    assert len(set(same)) == 1  # nodes 0, 1 share an MSCS
    cross = [star[r, 0] - star[r, 2] for r in range(5)]
    assert len(set(cross)) > 1  # nodes 0, 2 do not


# -- analyze and serialization ---------------------------------------------------------


def test_analyze_matches_parts():
    for A in (TWO_CIRCUITS, TWO_MSCS, ring_p(7, 12)):
        summary = analyze(A)
        assert summary.eigenvalue == max_cycle_mean(A)
        assert summary.sigma == cyclicity(A)
        crit = critical_graph(A)
        assert summary.critical.nodes == crit.nodes
        assert summary.critical.arcs == crit.arcs
        assert list(summary.eigenbasis) == eigenvectors(A)


def test_summary_json_one_based():
    doc = analyze(TWO_CIRCUITS).to_json_dict()
    assert doc["lambda"] == 5
    assert doc["sigma"] == 2
    assert doc["critical_nodes"] == [1, 2]
    assert doc["critical_arcs"] == [[1, 2], [2, 1]]
    assert doc["eigenbasis"] == [[0, 0, -5, -7]]


def test_analyze_reducible_refused():
    for fn in (analyze, cyclicity, eigenvectors):
        with pytest.raises(ReducibleMatrixError):
            fn(MaxPlusMatrix.diagonal((1, 2)))


# -- power-sequence periodicity ----------------------------------------------------------


def test_matrix_power_onset_examples():
    swap = mat((EPS, 0), (0, EPS))
    assert matrix_power_onset(swap) == 0
    assert matrix_power_onset(mat((5,))) == 0


def test_power_periodicity_random():
    rng = random.Random(53)
    for trial in range(12):
        n = 2 + trial % 5
        A = MaxPlusMatrix(random_irreducible_grid(rng, n, lo=-4, hi=4))
        summary = analyze(A)
        k_star = matrix_power_onset(A)
        shift = summary.eigenvalue * summary.sigma
        a_sigma = A.power(summary.sigma)
        current = A.power(k_star)
        for _ in range(11):
            assert current @ a_sigma == current.scale(shift)
            current = current @ A
