"""Precedence graphs, SCCs, eigenvalue, critical graph, cyclicity and the
eigenspace, cross-checked against exhaustive enumeration oracles."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_ca import spectral
from tropical_ca.errors import (
    CapExceededError,
    DimensionError,
    NoCircuitError,
    ReducibleMatrixError,
)
from tropical_ca.network import build_p, random_parameters, regular_ring
from tropical_ca.semiring import EPS, MaxPlusMatrix, unit_vector
from tropical_ca.spectral import (
    SccDecomposition,
    analyze,
    build_graph,
    max_cycle_mean,
    scc_decompose,
)

from oracles import (
    NEG_INF,
    critical_parts,
    dense,
    eigenspace_membership,
    grid_arcs,
    grid_identity,
    grid_mul,
    grid_power,
    is_irreducible,
    karp_cycle_mean,
    matrix_power_onset,
    max_circuit_mean,
    random_irreducible_grid,
    scc_partition,
    vec_scale,
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


def diagonal(*values):
    return MaxPlusMatrix.from_arcs([[(i, v)] for i, v in enumerate(values)])


def epsilons(n):
    """The n x n matrix with no arc."""
    return MaxPlusMatrix.from_arcs([()] * n)


def ring_p(size, seed, xi_range=(1, 30), tau_range=(1, 10)):
    spec = regular_ring(size, 3)
    params = random_parameters(spec, seed, xi_range, tau_range)
    return build_p(spec, params)


# -- out-arc view -----------------------------------------------------------------


def test_build_graph_identity():
    assert build_graph(diagonal(0, 0)) == [[(0, 0)], [(1, 0)]]


def test_build_graph_empty():
    assert build_graph(epsilons(3)) == [[], [], []]


def test_build_graph_ring_neighbourhoods():
    P = ring_p(20, 3)
    g = build_graph(P)
    grid = dense(P)
    for j in range(20):
        ends = sorted({(j - 1) % 20, j, (j + 1) % 20})
        assert g[j] == [(i, grid[i][j]) for i in ends]


def test_build_graph_non_square():
    with pytest.raises(DimensionError):
        build_graph(mat((1, 2)))


def test_build_graph_out_arcs():
    assert build_graph(TWO_CIRCUITS) == [
        [(1, 5)],
        [(0, 5), (2, 0)],
        [(3, 3)],
        [(0, 0), (2, 3)],
    ]


# -- strongly connected components -------------------------------------------------


def test_scc_single_component_ring():
    dec = scc_decompose(build_graph(ring_p(8, 2)))
    assert len(dec.components) == 1
    assert set(dec.components[0]) == set(range(8))


def test_scc_two_disjoint_rings():
    entries = [[EPS] * 6 for _ in range(6)]
    for a, b in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)):
        entries[b][a] = 1
    g = build_graph(MaxPlusMatrix(entries))
    dec = scc_decompose(g)
    assert {frozenset(c) for c in dec.components} == {
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    }
    comp_of = dec.component_of
    assert all(comp_of[j] == comp_of[i] for j, row in enumerate(g) for i, _w in row)


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
        arcs = [(j, i) for j, row in enumerate(g) for i, _w in row]
        assert {frozenset(c) for c in dec.components} == scc_partition(n, arcs)
        # Topological numbering: arcs between components go low -> high.
        comp_of = dec.component_of
        assert all(comp_of[j] <= comp_of[i] for (j, i) in arcs)
        for v in range(n):
            assert v in dec.components[dec.component_of[v]]


# -- irreducibility ------------------------------------------------------------------


def test_irreducible_ring():
    assert is_irreducible(ring_p(10, 4))


def test_reducible_diagonal():
    assert not is_irreducible(diagonal(1, 2))


def test_single_node_without_self_loop_is_irreducible():
    assert is_irreducible(epsilons(1))


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
        max_cycle_mean(epsilons(1))


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


@st.composite
def cycle_mean_grids(draw):
    """Grids of n <= 10 nodes, half of them irreducible (a Hamiltonian
    cycle in a drawn order), each node with up to two more out-arcs, and
    int or Fraction weights, so lambda can be non-integer."""
    n = draw(st.integers(1, 10))
    arcs = set()
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        arcs |= {(order[t], order[(t + 1) % n]) for t in range(n)}
    for j in range(n):
        arcs |= {(j, i) for i in draw(st.lists(st.integers(0, n - 1), max_size=2))}
    if draw(st.booleans()):
        weights = st.fractions(-9, 9, max_denominator=6)
    else:
        weights = st.integers(-9, 9)
    grid = [[NEG_INF] * n for _ in range(n)]
    for (j, i) in sorted(arcs):
        grid[i][j] = draw(weights)
    return grid


@settings(max_examples=200, deadline=None)
@given(cycle_mean_grids())
def test_mcm_equals_karp_and_enumeration(grid):
    lam = max_circuit_mean(grid)
    assert karp_cycle_mean(grid) == lam
    A = MaxPlusMatrix(grid)
    if lam is None:
        with pytest.raises(NoCircuitError):
            max_cycle_mean(A)
        return
    assert max_cycle_mean(A) == lam
    if len(scc_partition(len(grid), grid_arcs(grid))) == 1:
        summary = analyze(A)
        nodes, arcs = critical_parts(grid)
        assert summary.eigenvalue == lam
        assert set(summary.critical.nodes) == nodes
        assert set(summary.critical.arcs) == arcs


def test_mcm_policy_iteration_cap(monkeypatch):
    # Node 0 first picks its heavier in-arc, from node 1, on the circuit of
    # mean -5/2; the self-loop of mean 4 takes a second policy.
    A = mat((4, 5), (-10, EPS))
    assert max_cycle_mean(A) == 4
    monkeypatch.setattr(spectral, "_howard_cap", lambda nodes, arcs: 1)
    for fn in (max_cycle_mean, analyze):
        with pytest.raises(CapExceededError) as exc:
            fn(A)
        assert exc.value.k_reached == 1
        assert str(exc.value) == "Howard's policy iteration did not settle within 1 evaluations"


def test_howard_cap_is_twice_the_arcs_plus_the_nodes_plus_100(monkeypatch):
    # One component of 3 nodes and 6 arcs: a cap of 2·6 + 3 + 100.
    stated = spectral._howard_cap
    caps = []
    monkeypatch.setattr(spectral, "_howard_cap",
                        lambda nodes, arcs: caps.append((nodes, arcs, stated(nodes, arcs))) or 1000)
    assert max_cycle_mean(mat((4, 5, EPS), (-10, EPS, 1), (EPS, 2, 3))) == 4
    assert caps == [(3, 6, 115)]
    assert [stated(n, m) for n, m in ((1, 0), (1, 1), (5, 10))] == [101, 103, 125]


# -- critical graph -----------------------------------------------------------------


def test_critical_single_self_loop():
    crit = analyze(mat((5,))).critical
    assert crit.nodes == (0,) and crit.arcs == ((0, 0),)
    assert crit.eigenvalue == 5


def test_critical_two_circuits():
    crit = analyze(TWO_CIRCUITS).critical
    assert crit.nodes == (0, 1)
    assert crit.arcs == ((0, 1), (1, 0))
    nodes, arcs = critical_parts(dense(TWO_CIRCUITS))
    assert set(crit.nodes) == nodes and set(crit.arcs) == arcs


def test_critical_uniform_ring_is_everything():
    # With xi = c and tau = d every arc weighs c + d, so every circuit
    # attains the maximum mean and the whole graph is critical.
    spec = regular_ring(6, 3)
    P = build_p(spec, random_parameters(spec, 1, (5, 5), (2, 2)))
    crit = analyze(P).critical
    assert crit.nodes == tuple(range(6))
    assert set(crit.arcs) == set(spec.arcs) and len(crit.arcs) == 18
    nodes, arcs = critical_parts(dense(P))
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
        crit = analyze(A).critical
        nodes, arcs = critical_parts(grid)
        assert set(crit.nodes) == nodes and set(crit.arcs) == arcs
        lam = max_circuit_mean(grid)
        assert karp_cycle_mean(grid) == lam
        non_integer += lam.denominator > 1
        summary = analyze(A)
        assert summary.eigenvalue == lam
        comps = summary.critical.components
        assert len(summary.eigenbasis) == len(comps)
        for comp, vec in zip(comps, summary.eigenbasis):
            assert list(vec) == star_column(grid, lam, comp[0])
    assert non_integer >= 20


def test_critical_components_match_the_circuit_oracle(monkeypatch):
    """analyze's critical components and the per-component arc lists its
    cyclicity reads: the components are the strongly connected parts of
    the critical graph, in descending order of their smallest node; each
    list holds the critical arcs inside its component in the critical
    graph's order, and together they are the arcs on circuits of maximum
    mean."""
    grouped = []
    original = spectral._critical_components

    def recorded(dec, arcs):
        grouped.append(original(dec, arcs))
        return grouped[-1]

    monkeypatch.setattr(spectral, "_critical_components", recorded)
    rng = random.Random(17)
    several = 0
    for trial in range(80):
        n = 1 + trial % 7
        # Weights in -2..2 tie often, so several circuits are critical.
        grid = random_irreducible_grid(rng, n, lo=-2, hi=2)
        crit = analyze(MaxPlusMatrix(grid)).critical
        parts = grouped[-1]
        comps = crit.components
        assert tuple(comp for comp, _group in parts) == comps
        nodes, arcs = critical_parts(grid)
        assert {v for comp in comps for v in comp} == nodes
        assert sorted(a for _comp, group in parts for a in group) == sorted(arcs)
        sccs = scc_partition(n, arcs)
        for comp, group in parts:
            assert frozenset(comp) in sccs
            assert group == [a for a in crit.arcs if a[0] in comp and a[1] in comp]
        smallest = [comp[0] for comp in comps]
        assert smallest == sorted(smallest, reverse=True)
        several += len(comps) > 1
    assert len(grouped) == 80
    assert several >= 5


def test_critical_components_are_grouped_in_one_pass():
    """One critical self-loop on each of 2000 cells: 2000 components, in
    descending order, and the arcs are read twice in all, not once per
    component."""
    n = 2000

    class CountedArcs(tuple):
        passes = 0

        def __iter__(self):
            CountedArcs.passes += 1
            return super().__iter__()

    loops = CountedArcs((i, i) for i in range(n))
    dec = SccDecomposition(tuple((i,) for i in range(n)), tuple(range(n)))
    start = time.perf_counter()
    parts = spectral._critical_components(dec, loops)
    elapsed = time.perf_counter() - start
    assert parts == [((i,), [(i, i)]) for i in reversed(range(n))]
    assert CountedArcs.passes <= 2
    assert elapsed < 0.5


def test_analyze_builds_one_view_and_runs_tarjan_twice(monkeypatch):
    """With two critical components, analyze builds the out-arc view once
    and decomposes twice: the graph and its tight subgraph."""
    calls = {"build_graph": 0, "scc_decompose": 0}
    for name in calls:
        original = getattr(spectral, name)

        def counted(arg, name=name, original=original):
            calls[name] += 1
            return original(arg)

        monkeypatch.setattr(spectral, name, counted)
    summary = analyze(TWO_MSCS)
    assert len(summary.eigenbasis) == 2
    assert calls == {"build_graph": 1, "scc_decompose": 2}


def test_critical_reducible_refused():
    with pytest.raises(ReducibleMatrixError):
        analyze(diagonal(1, 2)).critical


# -- cyclicity ---------------------------------------------------------------------


def test_cyclicity_self_loop():
    assert analyze(mat((5,))).sigma == 1


def test_cyclicity_three_cycle():
    A = mat((EPS, EPS, 2), (2, EPS, EPS), (EPS, 2, EPS))
    assert analyze(A).sigma == 3


def test_cyclicity_lcm_of_mscs():
    assert analyze(TWO_MSCS).sigma == 6


def test_cyclicity_single_critical_cycle_length():
    # Critical graph a single circuit of length L gives cyclicity L.
    for L in (2, 4, 5):
        entries = [[EPS] * L for _ in range(L)]
        for t in range(L):
            entries[(t + 1) % L][t] = 1
        assert analyze(MaxPlusMatrix(entries)).sigma == L


# -- eigenvectors ---------------------------------------------------------------------


def test_eigenvector_loop_with_feeding_chain():
    # Self-loop of weight 5 on node 0 with a 0-weight return chain via 1.
    A = mat((5, 0), (0, EPS))
    basis = analyze(A).eigenbasis
    assert basis == ((0, -5),)
    assert A.apply(basis[0]) == vec_scale(5, basis[0])


def test_eigenvector_uniform_ring_unit():
    spec = regular_ring(6, 3)
    P = build_p(spec, random_parameters(spec, 1, (5, 5), (2, 2)))
    u = unit_vector(6)
    assert P.apply(u) == vec_scale(7, u)
    assert analyze(P).eigenbasis[0] == u
    assert eigenspace_membership(analyze(P).eigenbasis, u)


def test_eigenvector_shift_closure():
    for A in (TWO_CIRCUITS, TWO_MSCS):
        summary = analyze(A)
        for v in summary.eigenbasis:
            shifted = vec_scale(4, v)
            assert A.apply(shifted) == vec_scale(
                summary.eigenvalue + 4, v
            )
            assert eigenspace_membership(summary.eigenbasis, shifted)


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
    assert eigenspace_membership(summary.eigenbasis, b0)
    assert eigenspace_membership(summary.eigenbasis, b1)
    rng = random.Random(3)
    for _ in range(10):
        a0, a1 = rng.randint(-5, 5), rng.randint(-5, 5)
        combo = tuple(
            max(a0 + x, a1 + y) for x, y in zip(b0, b1)
        )
        assert eigenspace_membership(summary.eigenbasis, combo)
        assert TWO_MSCS.apply(combo) == vec_scale(summary.eigenvalue, combo)


def test_membership_rejects_perturbation():
    A = mat((5, 0), (0, EPS))
    v = analyze(A).eigenbasis[0]
    poked = (v[0], v[1] + 1)
    assert A.apply(poked) != vec_scale(5, poked)
    assert not eigenspace_membership([v], poked)


def test_membership_rejects_eps_entries():
    assert not eigenspace_membership(
        analyze(mat((5, 0), (0, EPS))).eigenbasis, (0, EPS)
    )


def test_column_equivalence_per_mscs():
    summary = analyze(TWO_MSCS)
    lam = summary.eigenvalue
    ahat = MaxPlusMatrix.from_arcs(
        [[(j, w - lam) for j, w in row] for row in TWO_MSCS.finite_rows()]
    )
    star = dense(ahat.star())
    same = [row[0] - row[1] for row in star]
    assert len(set(same)) == 1  # nodes 0, 1 share an MSCS
    cross = [row[0] - row[2] for row in star]
    assert len(set(cross)) > 1  # nodes 0, 2 do not


# -- analyze and serialization ---------------------------------------------------------


def test_analyze_matches_parts():
    for A in (TWO_CIRCUITS, TWO_MSCS, ring_p(7, 12)):
        assert analyze(A).eigenvalue == max_cycle_mean(A)


def test_summary_json_one_based():
    doc = analyze(TWO_CIRCUITS).to_json_dict()
    assert doc["lambda"] == 5
    assert doc["sigma"] == 2
    assert doc["critical_nodes"] == [1, 2]
    assert doc["critical_arcs"] == [[1, 2], [2, 1]]
    assert doc["eigenbasis"] == [[0, 0, -5, -7]]


def test_analyze_reducible_refused():
    with pytest.raises(ReducibleMatrixError):
        analyze(diagonal(1, 2))


# -- power-sequence periodicity ----------------------------------------------------------


def test_matrix_power_onset_examples():
    swap = mat((EPS, 0), (0, EPS))
    assert matrix_power_onset(dense(swap), analyze(swap)) == 0
    assert matrix_power_onset([[5]], analyze(mat((5,)))) == 0


def test_power_periodicity_random():
    rng = random.Random(53)
    for trial in range(12):
        n = 2 + trial % 5
        grid = random_irreducible_grid(rng, n, lo=-4, hi=4)
        summary = analyze(MaxPlusMatrix(grid))
        k_star = matrix_power_onset(grid, summary)
        shift = summary.eigenvalue * summary.sigma
        a_sigma = grid_power(grid, summary.sigma)
        current = grid_power(grid, k_star)
        for _ in range(11):
            assert grid_mul(current, a_sigma) == [[v + shift for v in row] for row in current]
            current = grid_mul(current, grid)
