"""Iteration, normalization, regime detection and cycletime."""

import csv
import random
from fractions import Fraction

import pytest

from tropical_ca.errors import (
    CapExceededError,
    DimensionError,
    ExactArithmeticError,
)
from tropical_ca.network import build_p, random_parameters, regular_ring
from tropical_ca.semiring import EPS, MaxPlusMatrix, unit_vector, vec_scale
from tropical_ca.spectral import analyze, eigenvectors
from tropical_ca.trajectory import (
    RegimeReport,
    cycletime,
    default_cap,
    detect_regime,
    iterate,
    normalize,
    per_node_estimates,
    verify_regime,
    write_trajectory_csv,
)


def mat(*rows):
    return MaxPlusMatrix(rows)


SWAP = mat((EPS, 0), (0, EPS))


def ring_system(size, seed, xi_range=(1, 30), tau_range=(1, 10)):
    spec = regular_ring(size, 3)
    params = random_parameters(spec, seed, xi_range, tau_range)
    P = build_p(spec, params).matrix
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
    v = eigenvectors(A)[0]
    traj = iterate(A, v, 6)
    for k, x in enumerate(traj.states):
        assert x == vec_scale(5 * k, v)


def test_iterate_input_checks():
    with pytest.raises(DimensionError):
        iterate(mat((1, 2)), (0, 0), 1)
    with pytest.raises(DimensionError):
        iterate(SWAP, (0,), 1)
    with pytest.raises(ValueError):
        iterate(SWAP, (0, EPS), 1)
    with pytest.raises(ValueError):
        iterate(SWAP, (0, 0), -1)


def test_monotone_growth():
    # All xi > 0 forces min_i x_i(k) strictly up each cycle.
    for seed in (3, 14, 15):
        P, _ = ring_system(7, seed)
        traj = iterate(P, tuple(range(7)), 20)
        lows = [min(x) for x in traj.states]
        assert all(a < b for a, b in zip(lows, lows[1:]))


# -- normalize ----------------------------------------------------------------


def test_normalize_eigenvector_start_constant():
    A = mat((5, 0), (0, EPS))
    v = eigenvectors(A)[0]
    norm = normalize(iterate(A, v, 5), 5)
    assert all(y == v for y in norm.states)


def test_normalize_two_route():
    P, summary = ring_system(5, 21)
    traj = iterate(P, (0, 3, 1, 4, 2), 12)
    norm = normalize(traj, summary.eigenvalue)
    phat = P.scale(-summary.eigenvalue)
    for k in range(12):
        assert phat.apply(norm.states[k]) == norm.states[k + 1]


def test_normalize_uniform_unit():
    P, _ = ring_system(6, 1, (5, 5), (2, 2))
    norm = normalize(iterate(P, unit_vector(6), 6), 7)
    assert all(y == unit_vector(6) for y in norm.states)


def test_normalize_rejects_eps():
    with pytest.raises(ValueError):
        normalize(iterate(SWAP, (0, 0), 1), EPS)


# -- detect_regime ---------------------------------------------------------------


def test_regime_eigenvector_start():
    A = mat((5, 0), (0, EPS))
    v = eigenvectors(A)[0]
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
        assert verify_regime(report, P)


def test_regime_extends_past_short_trajectory():
    # A one-state trajectory is enough; detection iterates internally.
    P, summary = ring_system(10, 42)
    report = detect_regime(iterate(P, unit_vector(10), 0), summary)
    assert (report.k_star, report.rho, report.mu) == (19, 1, 34)


def test_regime_cap_exceeded():
    P, summary = ring_system(10, 42)
    with pytest.raises(CapExceededError) as err:
        detect_regime(iterate(P, unit_vector(10), 0), summary, k_cap=5)
    assert err.value.k_reached == 5


def test_regime_requires_exact_entries():
    P = mat((6.0,))
    traj = iterate(P, (0.0,), 4)
    with pytest.raises(ExactArithmeticError):
        detect_regime(traj, analyze(mat((6,))))


def test_default_cap_formula():
    assert default_cap(10, 3) == 1030


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
        p_rho = P.power(report.rho)
        p_sigma = P.power(summary.sigma)
        for c in report.contours:
            assert p_rho.apply(c) == vec_scale(report.rho * summary.eigenvalue, c)
            assert p_sigma.apply(c) == vec_scale(
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


def test_per_node_estimates():
    P, _ = ring_system(5, 2)
    traj = iterate(P, unit_vector(5), 12)
    ests = per_node_estimates(traj, 12)
    assert ests == tuple(Fraction(traj.states[12][i], 12) for i in range(5))
    assert per_node_estimates(traj) == ests
    with pytest.raises(ValueError):
        per_node_estimates(traj, 0)
    with pytest.raises(ValueError):
        per_node_estimates(traj, 13)


# -- verify_regime -----------------------------------------------------------------


def test_verify_regime_accepts_detected():
    P, summary = ring_system(10, 42)
    report = detect_regime(iterate(P, unit_vector(10), 0), summary)
    assert verify_regime(report, P)


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
    assert not verify_regime(bad, P)


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
    assert not verify_regime(bad, P)


def test_verify_regime_rejects_wrong_mu():
    report = detect_regime(iterate(mat((6,)), (0,), 3), analyze(mat((6,))))
    bad = RegimeReport(
        k_star=report.k_star,
        rho=report.rho,
        mu=7,
        eigenvalue=report.eigenvalue,
        contours=report.contours,
    )
    assert not verify_regime(bad, mat((6,)))


def test_verify_regime_false_on_reducible():
    report = detect_regime(iterate(mat((6,)), (0,), 3), analyze(mat((6,))))
    assert not verify_regime(report, MaxPlusMatrix.diagonal((6, 6)))


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


def test_trajectory_csv_without_lambda(tmp_path):
    P, _ = ring_system(4, 11)
    traj = iterate(P, unit_vector(4), 2)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "x_1", "x_2", "x_3", "x_4"]


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
    P = build_p(spec, params).matrix
    summary = analyze(P)
    traj = iterate(P, unit_vector(24), 40)
    report = detect_regime(traj, summary)
    assert verify_regime(report, P)
    assert products == []
