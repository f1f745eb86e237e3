"""Iteration, normalization, regime detection and cycletime."""

import csv
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import vec_scale

from tropical_ca import trajectory
from tropical_ca.errors import (
    CapExceededError,
    DimensionError,
    ReducibleMatrixError,
    ScalarError,
)
from tropical_ca.network import build_p, random_parameters, regular_ring
from tropical_ca.semiring import EPS, MaxPlusMatrix, unit_vector
from tropical_ca.spectral import analyze
from tropical_ca.trajectory import (
    RegimeReport,
    csv_chunks,
    cycletime,
    cyclic_mismatch,
    detect_regime,
    iter_states,
    iterate,
    verify_regime,
    write_trajectory_csv,
)


def mat(*rows):
    return MaxPlusMatrix(rows)


SWAP = mat((EPS, 0), (0, EPS))


def ring_system(size, seed, xi_range=(1, 30), tau_range=(1, 10)):
    spec = regular_ring(size, 3)
    params = random_parameters(spec, seed, xi_range, tau_range)
    P = build_p(spec, params)
    return P, analyze(P)


# -- iterate ---------------------------------------------------------------


def test_iterate_scalar_recursion():
    traj = iterate(mat((6,)), (0,), 10)
    assert [x[0] for x in traj.states] == [6 * k for k in range(11)]


def test_iterate_uniform_ring():
    P, _ = ring_system(6, 1, (5, 5), (2, 2))
    traj = iterate(P, unit_vector(6), 8)
    for k, x in enumerate(traj.states):
        assert x == (7 * k,) * 6


def test_iterate_eigenvector_start():
    A = mat((5, 0), (0, EPS))
    v = analyze(A).eigenbasis[0]
    traj = iterate(A, v, 6)
    for k, x in enumerate(traj.states):
        assert x == vec_scale(5 * k, v)


def test_iterate_input_checks():
    with pytest.raises(DimensionError):
        iterate(mat((1, 2)), (0, 0), 1)
    with pytest.raises(DimensionError):
        iterate(SWAP, (0,), 1)
    with pytest.raises(DimensionError):
        iterate(SWAP, (0, EPS), 1)
    with pytest.raises(DimensionError):
        iterate(SWAP, (0, 0), -1)


@st.composite
def fast_forward_cases(draw):
    """(grid, x0, k_max): sparse grids, mostly reducible and often with
    rows that have no arc (EPS entries); irreducible grids of cyclicity
    1, 2 or 3; permutations whose circuits have equal or unequal means;
    int or rational weights and start; k_max past several checkpoints."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["sparse", "periodic", "permutation"]))
    n = draw(st.integers(1, 8))
    if kind == "sparse":
        density = rng.choice([0.15, 0.3, 0.6])
        grid = [
            [rng.randint(-9, 9) if rng.random() < density else EPS for _ in range(n)]
            for _ in range(n)
        ]
    elif kind == "periodic":
        period = rng.choice([p for p in (1, 2, 3) if n % p == 0])
        grid = oracles.random_irreducible_grid(rng, n, period=period)
    else:
        # Each circuit of a random permutation has a mean drawn from
        # {0, 1, 3/2}: with equal means the run recurs with rho the lcm of
        # the circuit lengths (and lambda may be 3/2); with unequal means
        # it never recurs up to one shift.
        order = list(range(n))
        rng.shuffle(order)
        grid = [[EPS] * n for _ in range(n)]
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        for a, b in zip([0, *cuts], [*cuts, n]):
            circuit = order[a:b]
            weights = [rng.randint(-9, 9) for _ in circuit[1:]]
            total = len(circuit) * rng.choice([0, 1, Fraction(3, 2)])
            weights.append(total - sum(weights))
            for j, i, w in zip(circuit, circuit[1:] + circuit[:1], weights):
                grid[i][j] = w
    rational = draw(st.booleans())
    if rational and kind != "permutation":
        grid = [
            [v if v == EPS else Fraction(v, rng.randint(1, 6)) for v in row]
            for row in grid
        ]
    x0 = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rational else rng.randint(-9, 9)
        for _ in range(n)
    )
    return grid, x0, draw(st.integers(0, 70))


@settings(max_examples=300, deadline=None)
@given(fast_forward_cases())
def test_iterate_fast_forward_equals_stepping(case):
    # iterate shifts held states once the run recurs; iter_states steps
    # every one.  Both give the same states with the same entry types.
    grid, x0, k_max = case
    P = MaxPlusMatrix(grid)
    traj = iterate(P, x0, k_max)
    got = traj.states
    want = tuple(iter_states(P, x0, k_max))
    assert got == want
    assert [list(map(type, x)) for x in got] == [list(map(type, x)) for x in want]
    # The recurrence it records, Lasso(m, d, c): states[j + d] = c ⊗
    # states[j] for every j >= m, and m is the earliest such cycle.
    if traj.recurrence is not None:
        m, d, c = traj.recurrence
        assert m >= 0 and d >= 1 and m + d <= k_max
        finite = [i for i, v in enumerate(got[m]) if v != EPS]
        assert c == (got[m + d][finite[0]] - got[m][finite[0]] if finite else 0)
        for j in range(m, k_max + 1 - d):
            assert got[j + d] == tuple(v + c for v in got[j])
        if m:
            assert got[m - 1 + d] != tuple(v + c for v in got[m - 1])


def test_iterate_stops_stepping_once_the_run_recurs(monkeypatch):
    # A checkpoint past k* recurs rho steps later, so iterate steps P at
    # most 2·max(k*, rho) + rho times however long the run: it stops at
    # the checkpoint m' (32, 128 and 4 here) plus d.  The recurrence it
    # records is walked back from m' to where the run starts to recur,
    # (k*, rho, mu), with no step added.
    steps = []
    step = trajectory.step_arcs

    def counted(arcs, y):
        steps.append(1)
        return step(arcs, y)

    monkeypatch.setattr(trajectory, "step_arcs", counted)
    cases = [(*ring_system(n, seed), unit_vector(n)) for n, seed in ((10, 42), (24, 5))]
    three = mat((EPS, EPS, 2), (1, EPS, EPS), (EPS, 4, EPS))  # rho = 3, lambda 7/3
    cases.append((three, analyze(three), (0, 0, 0)))
    for (P, summary, x0), taken in zip(cases, (33, 129, 7)):
        report = detect_regime(iterate(P, x0, 0), summary)
        bound = 2 * max(report.k_star, report.rho) + report.rho
        steps.clear()
        traj = iterate(P, x0, 3000)
        assert len(steps) == taken <= bound < 3000
        assert traj.recurrence == (report.k_star, report.rho, report.mu)
        assert iterate(P, x0, len(steps) - 1).recurrence is None
        assert traj.states == tuple(iter_states(P, x0, 3000))
        assert report.rho == (3 if P is three else 1)


def test_monotone_growth():
    # All xi > 0 forces min_i x_i(k) strictly up each cycle.
    for seed in (3, 14, 15):
        P, _ = ring_system(7, seed)
        traj = iterate(P, tuple(range(7)), 20)
        lows = [min(x) for x in traj.states]
        assert all(a < b for a, b in zip(lows, lows[1:]))


# -- detect_regime ---------------------------------------------------------------


def test_regime_eigenvector_start():
    A = mat((5, 0), (0, EPS))
    v = analyze(A).eigenbasis[0]
    report = detect_regime(iterate(A, v, 4), analyze(A))
    assert (report.k_star, report.rho, report.mu) == (0, 1, 5)
    assert report.contours == (v,)


def test_regime_uniform_unit():
    P, summary = ring_system(6, 1, (5, 5), (2, 2))
    report = detect_regime(iterate(P, unit_vector(6), 10), summary)
    assert report.rho == 1 and report.mu == 7
    assert report.contours == (unit_vector(6),)


def test_regime_period_two():
    report = detect_regime(iterate(SWAP, (0, 1), 8), analyze(SWAP))
    assert (report.k_star, report.rho, report.mu, report.eigenvalue) == (0, 2, 0, 0)
    assert report.contours == ((0, 1), (1, 0))


def test_regime_rho_divides_sigma():
    for seed in range(10):
        P, summary = ring_system(10, 100 + seed)
        report = detect_regime(iterate(P, unit_vector(10), 0), summary)
        assert summary.sigma % report.rho == 0
        assert verify_regime(report, P, summary)


def test_regime_extends_past_short_trajectory():
    # A one-state trajectory is enough; detection iterates internally.
    P, summary = ring_system(10, 42)
    report = detect_regime(iterate(P, unit_vector(10), 0), summary)
    assert (report.k_star, report.rho, report.mu) == (19, 1, 34)


def test_regime_cap_exceeded():
    # Cell 2 starts 100 ahead, and the critical cell 1 (lambda = 2) gains
    # on it by 1 a cycle, so the transient k* = 102 passes the cap of
    # 10·N² + 10·sigma = 50 steps.
    P = mat((2, -1000), (0, 1))
    summary = analyze(P)
    assert (summary.eigenvalue, summary.sigma) == (2, 1)
    assert iterate(P, (0, 100), 200).recurrence.start == 102
    message = r"within 50 steps: the heuristic step cap 10\*N\^2 \+ 10\*sigma ran out$"
    with pytest.raises(CapExceededError, match=message) as err:
        detect_regime(iterate(P, (0, 100), 0), summary)
    assert err.value.k_reached == 50


def test_regime_requires_exact_entries():
    # Regime detection hashes the states, so floats are refused before
    # they can reach it: in P and in x0.
    with pytest.raises(ScalarError):
        mat((6.0,))
    with pytest.raises(ScalarError):
        iterate(mat((6,)), (0.0,), 4)


def test_regime_shift_by_sigma():
    # x(k + sigma) = (sigma * lambda) + x(k) once the regime is reached.
    for seed in (42, 7, 90):
        P, summary = ring_system(10, seed)
        report = detect_regime(iterate(P, unit_vector(10), 0), summary)
        horizon = report.k_star + summary.sigma + 9
        traj = iterate(P, unit_vector(10), horizon + summary.sigma)
        shift = summary.sigma * summary.eigenvalue
        for k in range(report.k_star, horizon - summary.sigma + 1):
            assert traj.states[k + summary.sigma] == vec_scale(
                shift, traj.states[k]
            )


def test_contours_are_eigenvectors_of_both_powers():
    for seed in (42, 55):
        P, summary = ring_system(10, seed)
        report = detect_regime(iterate(P, unit_vector(10), 0), summary)
        p_rho = oracles.grid_power(oracles.dense(P), report.rho)
        p_sigma = oracles.grid_power(oracles.dense(P), summary.sigma)
        for c in report.contours:
            assert tuple(oracles.grid_apply(p_rho, c)) == vec_scale(
                report.rho * summary.eigenvalue, c
            )
            assert tuple(oracles.grid_apply(p_sigma, c)) == vec_scale(
                summary.sigma * summary.eigenvalue, c
            )


def test_non_unique_period_one_regimes():
    # Two eigenvectors that are not constant shifts of each other lead to
    # period-1 regimes with genuinely different limiting contours.
    A = mat((0, -1), (-1, 0))
    summary = analyze(A)
    assert len(summary.eigenbasis) == 2
    v0, v1 = summary.eigenbasis
    r0 = detect_regime(iterate(A, v0, 2), summary)
    r1 = detect_regime(iterate(A, v1, 2), summary)
    assert r0.rho == r1.rho == 1
    gaps = {a - b for a, b in zip(r0.contours[0], r1.contours[0])}
    assert len(gaps) > 1


# -- cycletime --------------------------------------------------------------------


def test_cycletime_scalar():
    report = detect_regime(iterate(mat((6,)), (0,), 3), analyze(mat((6,))))
    assert cycletime(report) == 6


def test_cycletime_equals_eigenvalue():
    P, summary = ring_system(9, 33)
    report = detect_regime(iterate(P, unit_vector(9), 0), summary)
    assert cycletime(report) == summary.eigenvalue


def test_cycletime_independent_of_start():
    P, summary = ring_system(8, 60)
    starts = [unit_vector(8), tuple(range(8)), (5, 0, 9, 2, 7, 1, 8, 3)]
    values = {
        cycletime(detect_regime(iterate(P, x0, 0), summary)) for x0 in starts
    }
    assert values == {summary.eigenvalue}


# -- verify_regime -----------------------------------------------------------------


def maps_cyclically(P, lam, cycles) -> bool:
    """P ⊗ c[m] = lam ⊗ c[m + 1] around each cycle c of vectors."""
    return cyclic_mismatch(P, lam, cycles) is None


def test_maps_cyclically_reads_eps_entries():
    # Arc 1 -> 2 of weight 0 and a loop of weight 1 at each cell: (eps, 0)
    # is an eigenvector of eigenvalue 1 with its first entry EPS.
    P = mat((1, EPS), (0, 1))
    assert maps_cyclically(P, 1, [[(EPS, 0)]])
    assert not maps_cyclically(P, 2, [[(EPS, 0)]])
    assert not maps_cyclically(P, 1, [[(0, EPS)]])
    # With EPS present the entries are scaled to ints one by one.
    assert maps_cyclically(P, 1, [[(EPS, Fraction(1, 3))]])
    assert not maps_cyclically(P, 1, [[(EPS, Fraction(1, 3)), (EPS, Fraction(1, 2))]])


# P swaps the two cells and adds 1, so it maps c to 1 ⊗ c', with
# denominators 3 and 5 that are neither in P nor in lambda.
SWAP_ONE = mat((EPS, 1), (1, EPS))
THIRDS_FIFTHS = [(Fraction(1, 3), Fraction(2, 5)), (Fraction(2, 5), Fraction(1, 3))]


def test_maps_cyclically_on_a_two_cycle_with_new_denominators():
    assert maps_cyclically(SWAP_ONE, 1, [THIRDS_FIFTHS])
    assert maps_cyclically(SWAP_ONE, 1, [THIRDS_FIFTHS[::-1], [(0, 0)]])
    assert not maps_cyclically(SWAP_ONE, 1, [THIRDS_FIFTHS[:1]])
    assert not maps_cyclically(SWAP_ONE, Fraction(1, 3), [THIRDS_FIFTHS])


def test_maps_cyclically_fails_on_one_perturbed_entry():
    for m in range(2):
        for i in range(2):
            cycle = [list(c) for c in THIRDS_FIFTHS]
            cycle[m][i] += Fraction(1, 7)
            assert not maps_cyclically(SWAP_ONE, 1, [[tuple(c) for c in cycle]])


def test_maps_cyclically_input_checks():
    with pytest.raises(ScalarError):
        maps_cyclically(SWAP_ONE, 1, [[(0.5, 0)]])
    with pytest.raises(ScalarError):
        maps_cyclically(SWAP_ONE, 1.0, [[(0, 0)]])
    with pytest.raises(DimensionError):
        maps_cyclically(SWAP_ONE, EPS, [[(0, 0)]])
    with pytest.raises(DimensionError):
        maps_cyclically(SWAP_ONE, 1, [[(0, 0, 0)]])


# The circuit 1 -> 2 -> 3 -> 1 with weights 1, 1 and 2: lambda = 4/3 and
# its regime cycles through three contours, c2 = (2/3, -1/3, -1/3) and
# c3 = (1/3, 1/3, -2/3) after c1 = (0, 0, 0).
THIRDS_CIRCUIT = mat((EPS, EPS, 2), (1, EPS, EPS), (EPS, 1, EPS))
THIRDS = [(0, 0, 0), (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3)),
          (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))]


def test_cyclic_mismatch_counts_across_cycles():
    # The second cycle is the regime 5 later, with the second cell of its
    # third contour raised by 1: the first vector that maps wrong is its
    # second, number 3 + 1 across both cycles, where P ⊗ c = 20/3 at the
    # second cell, and lambda ⊗ c' = 4/3 + 19/3.
    lam = Fraction(4, 3)
    assert cyclic_mismatch(THIRDS_CIRCUIT, lam, [THIRDS]) is None
    later = [tuple(v + 5 for v in c) for c in THIRDS]
    later[2] = (later[2][0], later[2][1] + 1, later[2][2])
    assert cyclic_mismatch(THIRDS_CIRCUIT, lam, [THIRDS, later]) == (
        4, 1, Fraction(23, 3), Fraction(20, 3))


def test_cyclic_mismatch_reports_a_vector_with_an_eps_entry():
    # lambda = 3/2, the mean of the circuit 1 -> 2 -> 1; (0, 1/2) is an
    # eigenvector.  (0, eps) is not: P ⊗ (0, eps) = (1/3, 2), and its first
    # cell differs from lambda ⊗ (0, eps) = (3/2, eps).
    P = mat((Fraction(1, 3), 1), (2, Fraction(1, 3)))
    lam = Fraction(3, 2)
    cycles = [[(0, Fraction(1, 2))], [(0, EPS)]]
    assert cyclic_mismatch(P, lam, cycles[:1]) is None
    assert cyclic_mismatch(P, lam, cycles) == (1, 0, Fraction(3, 2), Fraction(1, 3))


def test_verify_regime_accepts_detected():
    P, summary = ring_system(10, 42)
    report = detect_regime(iterate(P, unit_vector(10), 0), summary)
    assert verify_regime(report, P, summary)


def test_verify_regime_rejects_wrong_rho():
    P, summary = ring_system(10, 42)
    good = detect_regime(iterate(P, unit_vector(10), 0), summary)
    assert summary.sigma == 1  # so rho = 2 cannot divide it
    bad = RegimeReport(
        k_star=good.k_star,
        rho=good.rho + 1,
        mu=good.mu,
        eigenvalue=good.eigenvalue,
        contours=good.contours * 2,
    )
    assert not verify_regime(bad, P, summary)


def test_verify_regime_rejects_perturbed_contour():
    P, summary = ring_system(10, 42)
    good = detect_regime(iterate(P, unit_vector(10), 0), summary)
    c = list(good.contours[0])
    c[3] += 1
    bad = RegimeReport(
        k_star=good.k_star,
        rho=good.rho,
        mu=good.mu,
        eigenvalue=good.eigenvalue,
        contours=(tuple(c),),
    )
    assert not verify_regime(bad, P, summary)


def test_verify_regime_rejects_wrong_mu():
    summary = analyze(mat((6,)))
    report = detect_regime(iterate(mat((6,)), (0,), 3), summary)
    bad = RegimeReport(
        k_star=report.k_star,
        rho=report.rho,
        mu=7,
        eigenvalue=report.eigenvalue,
        contours=report.contours,
    )
    assert not verify_regime(bad, mat((6,)), summary)


def test_verify_regime_false_on_reducible():
    # verify_regime takes the summary of P, and a reducible P has none:
    # analyze refuses it before any regime is checked.
    with pytest.raises(ReducibleMatrixError):
        analyze(mat((6, EPS), (EPS, 6)))


# -- report serialization and CSV -----------------------------------------------------


def test_report_json_shape():
    P, summary = ring_system(10, 42)
    report = detect_regime(iterate(P, unit_vector(10), 0), summary)
    doc = report.to_json_dict()
    assert doc["k_star"] == 19 and doc["rho"] == 1
    assert doc["mu"] == 34 and doc["lambda"] == 34
    assert len(doc["contours"]) == 1 and len(doc["contours"][0]) == 10


def test_trajectory_csv(tmp_path):
    P, summary = ring_system(4, 11)
    traj = iterate(P, unit_vector(4), 5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, summary.eigenvalue)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k"] + [f"x_{i}" for i in (1, 2, 3, 4)] + [
        f"y_{i}" for i in (1, 2, 3, 4)
    ]
    assert len(rows) == 7
    assert rows[1][0] == "0" and rows[1][1:5] == ["0", "0", "0", "0"]
    # x and y columns disagree exactly by lambda * k
    lam = summary.eigenvalue
    for k, row in enumerate(rows[1:]):
        xs = [Fraction(v) for v in row[1:5]]
        ys = [Fraction(v) for v in row[5:9]]
        assert all(x - lam * k == y for x, y in zip(xs, ys))


def test_csv_keeps_eps():
    # No arc enters cell 2, so x_2(k) and y_2(k) are EPS from k = 1 on.
    for P, x0, lam in (
        (mat((2, 0), (EPS, EPS)), (0, 5), 2),
        (mat((Fraction(1, 2), 0), (EPS, EPS)), (Fraction(1, 3), 0), Fraction(1, 2)),
    ):
        traj = iterate(P, x0, 3)
        assert traj.states[1][1] == EPS
        assert "".join(csv_chunks(traj, lam)) == oracles.trajectory_csv_longhand(traj.states, lam)


# -- sparse timing path ------------------------------------------------------------


def test_timing_path_forms_no_matrix_product(monkeypatch):
    """P, its spectrum, the trajectory and the regime checks all work from
    P's finite entries: no dense max-plus product is ever formed."""
    products = []

    def refuse(self, other):
        products.append(other)
        raise AssertionError("dense max-plus product on the timing path")

    spec = regular_ring(24, 3)
    params = random_parameters(spec, 5, (1, 30), (1, 10))
    monkeypatch.setattr(MaxPlusMatrix, "__matmul__", refuse)
    P = build_p(spec, params)
    summary = analyze(P)
    traj = iterate(P, unit_vector(24), 40)
    report = detect_regime(traj, summary)
    assert verify_regime(report, P, summary)
    assert products == []


# -- the window detector against the hashing oracle --------------------------------


@st.composite
def regime_instances(draw):
    """(grid, x0, k_max, period): a random irreducible grid of up to 9
    nodes whose circuit lengths are all multiples of period (so sigma is
    too), int or rational entries and start, and a trajectory length
    that may stop before the regime or run past it.  x0 is None for a
    start on an eigenvector, where rho = 1 whatever sigma is."""
    period = draw(st.sampled_from([1, 1, 2, 3]))
    n = period * draw(st.integers(1, 9 // period))
    rng = random.Random(draw(st.integers(0, 2**32)))
    grid = oracles.random_irreducible_grid(rng, n, period=period)
    if draw(st.booleans()):
        grid = [
            [v if v == oracles.NEG_INF else Fraction(v, rng.randint(1, 6)) for v in row]
            for row in grid
        ]
        x0 = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
    else:
        x0 = tuple(rng.randint(-9, 9) for _ in range(n))
    if draw(st.integers(0, 3)) == 0:
        x0 = None
    return grid, x0, draw(st.integers(0, 12)), period


def _canonical(v):
    return int(v) if v.denominator == 1 else v


@settings(max_examples=150, deadline=None)
@given(regime_instances())
def test_window_detector_equals_hashing_oracle(instance):
    grid, x0, k_max, period = instance
    P = MaxPlusMatrix(grid)
    summary = analyze(P)
    assert summary.sigma % period == 0
    if x0 is None:
        x0 = summary.eigenbasis[-1]
    traj = iterate(P, x0, k_max)
    report = detect_regime(traj, summary)
    lam = summary.eigenvalue
    cap = 10 * len(grid) ** 2 + 10 * summary.sigma
    k_star, rho, mu, contours = oracles.regime_by_hashing(grid, x0, lam, cap)
    want = RegimeReport(
        k_star=k_star,
        rho=rho,
        mu=_canonical(mu),
        eigenvalue=lam,
        contours=tuple(tuple(map(_canonical, c)) for c in contours),
    )
    assert report == want
    assert report.to_json_dict() == want.to_json_dict()
    # A run that recurs within k_max recurs as its regime.
    assert traj.recurrence in (None, (report.k_star, report.rho, report.mu))
    assert "".join(csv_chunks(traj, lam)) == oracles.trajectory_csv_longhand(traj.states, lam)

    def checks(contours):
        bad = RegimeReport(k_star, rho, report.mu, lam, contours)
        holds = oracles.cyclic_regime_holds(grid, lam, summary.sigma, rho, mu, contours)
        assert verify_regime(bad, P, summary) == holds
        return holds

    assert checks(report.contours)
    # Shifting every contour by one constant keeps a valid report valid,
    # though its entries are no longer multiples of the frame's 1/s.
    alpha = Fraction(1, 97)
    assert checks(tuple(tuple(v + alpha for v in c) for c in report.contours))
    # Raising one entry of the first contour breaks the map into it from
    # the last one, unless rho = 1 and a self-loop carries the raise along.
    free = [i for i in range(len(grid)) if rho > 1 or grid[i][i] == oracles.NEG_INF]
    if free:
        c0 = list(report.contours[0])
        c0[free[0]] += alpha
        assert not checks((tuple(c0),) + report.contours[1:])


def test_verify_regime_rational_period_three():
    # The circuit 0 -> 1 -> 2 -> 0 (mean 7/3) is critical, the 6-circuit
    # through all nodes has mean 2: lambda has denominator 3, and
    # sigma = rho = 3 from the unit start.
    grid = [[oracles.NEG_INF] * 6 for _ in range(6)]
    arcs = ((0, 1, 2), (1, 2, 2), (2, 0, 3), (2, 3, 1), (3, 4, 4), (4, 5, 2), (5, 0, 1))
    for j, i, w in arcs:
        grid[i][j] = w
    P = MaxPlusMatrix(grid)
    summary = analyze(P)
    report = detect_regime(iterate(P, unit_vector(6), 0), summary)
    assert (summary.eigenvalue, summary.sigma, report.rho) == (Fraction(7, 3), 3, 3)
    assert verify_regime(report, P, summary)
    c = list(report.contours[1])
    c[4] += Fraction(1, 3)
    bad = RegimeReport(report.k_star, 3, report.mu, report.eigenvalue,
                       (report.contours[0], tuple(c), report.contours[2]))
    assert not verify_regime(bad, P, summary)


def test_detect_regime_memory_is_a_window():
    # k* = 1254 steps on 160 cells: the hashing detector kept every state
    # (15.4 MiB at its peak); the window keeps sigma + 1 = 2.
    P, summary = ring_system(160, 5)
    traj = iterate(P, unit_vector(160), 0)
    tracemalloc.start()
    try:
        report = detect_regime(traj, summary)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.k_star, report.rho, summary.sigma) == (1254, 1, 1)
    assert peak < 1 << 20
