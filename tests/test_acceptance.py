"""Acceptance gate: eight go/no-go checks for the whole library.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL
line per criterion.  Runtime budgets are part of the contract: a check
that blows its budget fails even when every value is right.  All
comparisons are exact; there are no tolerances anywhere in this file.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import oracles
from oracles import pixmap_parse, vec_scale

from tropical_ca.ca import (
    CARule,
    async_run,
    attractor_census,
    bijection_mismatch,
    build_stg,
    event_times,
    first_mismatch,
    state_at,
    state_from_string,
    state_to_string,
    sync_orbit,
    verify_bijection,
)
from tropical_ca.network import build_p, random_parameters, regular_ring
from tropical_ca.render import (
    CELL_PX,
    GRAY0,
    GRAY1,
    TIME_SCALE,
    spacetime_async,
    spacetime_async_pixmap,
)
from tropical_ca.semiring import MaxPlusMatrix, unit_vector
from tropical_ca.spectral import analyze, max_cycle_mean
from tropical_ca.trajectory import cycletime, detect_regime, iter_states, iterate


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"took {elapsed:.2f}s, budget is {budget:.0f}s"
            )
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def seeded_system(seed, size=10):
    spec = regular_ring(size, 3)
    params = random_parameters(spec, seed, (1, 30), (1, 10))
    return spec, params, build_p(spec, params)


def test_criterion_1_rule150_orbit():
    with criterion(
        1, "rule 150 on the 10-ring: period 6 and the exact orbit set", budget=1.0
    ):
        orbit = sync_orbit(
            CARule.eca(150),
            regular_ring(10, 3),
            state_from_string("0000100000"),
            1 << 10,
        )
        assert orbit.entry_time == 0
        assert orbit.period == 6
        assert {state_to_string(s) for s in orbit.states[orbit.entry_time :]} == {
            "0000100000",
            "0001110000",
            "0010101000",
            "0110101100",
            "1000100010",
            "1101110110",
        }


def _bijection_instance(i):
    size = 4 + i % 9
    rule = (
        CARule.eca(150), CARule.eca(90), CARule.eca(30), CARule.parity()
    )[i % 4]
    spec = regular_ring(size, 3)
    params = random_parameters(spec, 1000 + i, (1, 30), (1, 10))
    s0 = tuple(random.Random(5000 + i).randrange(2) for _ in range(size))
    return rule, spec, params, s0, unit_vector(size)


def test_criterion_2_bijection_suite():
    with criterion(
        2,
        "100 seeded runs: async states == sync states for every k <= 100; "
        "the early-update fault is caught in at least 16, and its first "
        "counter-example names the injected cell",
        budget=30.0,
    ):
        mismatches = 0
        caught = 0
        for i in range(100):
            rule, spec, params, s0, x0 = _bijection_instance(i)
            if not verify_bijection(rule, spec, params, s0, x0, 100):
                mismatches += 1
            found = bijection_mismatch(
                rule, spec, params, s0, x0, 100, early_update_cell=0
            )
            if found is not None:
                caught += 1
                # The cell that fires early differs first in its own state.
                assert found.cell == 0, (i, found)
            times = first_mismatch(
                "times",
                iter_states(build_p(spec, params), x0, 100),
                event_times(spec, params, x0, 100, early_update_cell=0),
            )
            assert times is None or times.cell == 0, (i, times)
        assert mismatches == 0
        # The fault changes the states in 16 of these 100 runs.
        assert caught >= 16


def _random_matrices():
    for i in range(200):
        rng = random.Random(7000 + i)
        n = rng.randrange(2, 9)
        yield oracles.random_irreducible_grid(rng, n)


def test_criterion_3_eigenvalue_oracle_equivalence():
    with criterion(
        3,
        "Howard cycle mean == exhaustive circuit enumeration on 200 random "
        "irreducible matrices (n <= 8)",
        budget=30.0,
    ):
        for grid in _random_matrices():
            assert max_cycle_mean(MaxPlusMatrix(grid)) == (
                oracles.max_circuit_mean(grid)
            )


def test_criterion_4_eigen_equation():
    with criterion(
        4,
        "every computed eigenvector satisfies A (x) v = lambda (x) v "
        "exactly on the same 200 matrices",
    ):
        for grid in _random_matrices():
            A = MaxPlusMatrix(grid)
            summary = analyze(A)
            assert summary.eigenbasis
            for v in summary.eigenbasis:
                assert A.apply(v) == vec_scale(summary.eigenvalue, v)


def test_criterion_5_regime_structure():
    with criterion(
        5,
        "50 seeded systems: regime found under the default cap, rho | sigma, "
        "x(k+rho) = rho*lambda (x) x(k) for 10 consecutive k, contours are "
        "eigenvectors of P^rho",
    ):
        for i in range(50):
            _spec, _params, P = seeded_system(2000 + i)
            summary = analyze(P)
            x0 = unit_vector(10)
            report = detect_regime(iterate(P, x0, 10), summary)
            assert report.rho >= 1
            assert summary.sigma % report.rho == 0
            assert report.mu == report.rho * summary.eigenvalue
            ext = iterate(P, x0, report.k_star + report.rho + 10)
            for k in range(report.k_star, report.k_star + 10):
                assert ext.states[k + report.rho] == vec_scale(
                    report.mu, ext.states[k]
                )
            P_rho = oracles.grid_power(oracles.dense(P), report.rho)
            for v in report.contours:
                assert tuple(oracles.grid_apply(P_rho, v)) == vec_scale(report.mu, v)


def test_criterion_6_cycletime_independence_and_finite_k_bound():
    with criterion(
        6,
        "cycletime is the eigenvalue for 3 distinct starts on each of 50 "
        "systems; |x_i(500)/500 - lambda| <= C/500 with C the largest "
        "absolute contour entry",
    ):
        for i in range(50):
            _spec, _params, P = seeded_system(2000 + i)
            summary = analyze(P)
            lam = summary.eigenvalue
            starts = (
                unit_vector(10),
                tuple(range(10)),
                tuple((7 * j) % 11 for j in range(10)),
            )
            reports = [
                detect_regime(iterate(P, x0, 10), summary) for x0 in starts
            ]
            assert all(cycletime(r) == lam for r in reports)

            report = reports[0]
            assert report.k_star <= 500
            bound = max(
                abs(Fraction(e)) for v in report.contours for e in v
            ) / Fraction(500)
            x500 = iterate(P, starts[0], 500).states[500]
            for xi in x500:
                assert abs(Fraction(xi) / 500 - lam) <= bound


def test_criterion_7_memory_geometry_consistency():
    with criterion(
        7,
        "3 runs x 1000 probes: plot pixels == state_at, hold intervals tile "
        "time exactly, re-rendering is byte-identical",
    ):
        for idx, size in enumerate((6, 9, 11)):
            spec = regular_ring(size, 3)
            params = random_parameters(spec, 4000 + idx, (1, 30), (1, 10))
            rng = random.Random(4100 + idx)
            s0 = tuple(rng.randrange(2) for _ in range(size))
            if not any(s0):
                s0 = (1,) + s0[1:]
            run = async_run(
                CARule.eca(150), spec, params, s0, unit_vector(size), 12
            )

            pgm = spacetime_async_pixmap(run)
            assert pgm == spacetime_async_pixmap(run)
            svg = spacetime_async(run)
            assert svg == spacetime_async(run)

            _w, height, rows = pixmap_parse(pgm)
            t0 = min(min(x) for x in run.trajectory.states)
            first, last = run.time_window()
            probes = 0
            while probes < 1000:
                r = rng.randrange(height)
                cell = rng.randrange(size)
                t = t0 + Fraction(r, TIME_SCALE)
                if not first <= t < last:
                    continue
                want = state_at(run, t)[cell]
                got = rows[r][cell * CELL_PX]
                assert got == (GRAY1 if want else GRAY0)
                probes += 1

            for cell in range(size):
                times = run.update_times(cell)
                intervals = oracles.hold_intervals(run, cell)
                assert intervals[0][0] == times[0]
                assert intervals[-1][1] == times[run.k_max]
                for (a, b, _bit) in intervals:
                    assert a < b
                for k in range(len(intervals) - 1):
                    assert intervals[k][1] == intervals[k + 1][0]


def test_criterion_8_stg_census():
    with criterion(
        8,
        "rule 150 on the 4-ring: census == exhaustive-iteration oracle, "
        "out-degree 1, attractor + transient states == 16",
    ):
        stg = build_stg(CARule.eca(150), regular_ring(4, 3))
        census = attractor_census(stg)
        expected = oracles.census_by_iteration(oracles.ring150_step, 4)
        assert census["fixed_points"] == expected["fixed_points"]
        assert census["cycles"] == expected["cycles"]
        assert stg.transient_count() == expected["transient_count"]
        assert len(stg.successors) == 16
        assert all(isinstance(s, int) for s in stg.successors)
        assert len(stg.attractor_codes) + stg.transient_count() == 16
