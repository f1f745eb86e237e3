"""Trajectories of x(k+1) = P ⊗ x(k) and their periodic regime.

Raw trajectories grow linearly (about the eigenvalue lambda per step), so
they never literally repeat.  Subtracting the drift gives the normalized
sequence y(k) = x(k) - lambda·k, which evolves under the normalized matrix
(-lambda) ⊗ P and is eventually periodic: there are k* and rho with

    x(k + rho) = mu ⊗ x(k)        for all k >= k*,  mu = rho · lambda,

and rho divides the cyclicity sigma(P).  Regime detection hashes the
normalized states, which are exact ints or Fractions; the first repeated
value pins both the transient k* and the minimal period rho (a
deterministic map cannot revisit a tail value without being periodic from
its first occurrence).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CapExceededError,
    DimensionError,
    VerificationError,
)
from .semiring import (
    MaxPlusMatrix,
    Scalar,
    canonical,
    exact,
    format_scalar,
    is_eps,
    scalar_to_json,
    vec_is_finite,
    vec_scale,
)
from .spectral import SpectralSummary


@dataclass(frozen=True)
class Trajectory:
    """States x(0..k_max) of one iteration, immutable after construction."""

    matrix: MaxPlusMatrix
    states: tuple  # tuple of vectors

    @property
    def k_max(self) -> int:
        return len(self.states) - 1

    @property
    def size(self) -> int:
        return self.matrix.rows

    def state(self, k: int):
        return self.states[k]


def iterate(P: MaxPlusMatrix, x0: Sequence[Scalar], k_max: int) -> Trajectory:
    """Iterate x(k+1) = P ⊗ x(k) from a finite start vector."""
    if not P.is_square():
        raise DimensionError("iteration needs a square matrix")
    if len(x0) != P.rows:
        raise DimensionError(
            f"x0 has {len(x0)} entries for a {P.rows}-cell system"
        )
    if k_max < 0:
        raise DimensionError(f"k_max must be >= 0, got {k_max}")
    x = tuple(map(exact, x0))
    if not vec_is_finite(x):
        raise DimensionError("x0 must be finite in every entry")
    states = [x]
    for _ in range(k_max):
        x = P.apply(x)
        states.append(x)
    return Trajectory(P, tuple(states))


@dataclass(frozen=True)
class NormalizedTrajectory:
    """y(k) = x(k) - lambda·k: the trajectory seen from the moving frame."""

    eigenvalue: Scalar
    states: tuple


def _normalized_state(x, lam, k):
    shift = canonical(lam * k)
    return tuple(canonical(v - shift) for v in x)


def normalize(traj: Trajectory, eigenvalue: Scalar) -> NormalizedTrajectory:
    if is_eps(eigenvalue):
        raise DimensionError("eigenvalue must be finite")
    states = tuple(
        _normalized_state(x, eigenvalue, k) for k, x in enumerate(traj.states)
    )
    return NormalizedTrajectory(eigenvalue, states)


@dataclass(frozen=True)
class RegimeReport:
    """Periodic regime of one trajectory.

    contours holds the normalized states y(k*), ..., y(k* + rho - 1); the
    raw trajectory repeats them forever, shifted by mu = rho·lambda per
    sweep.
    """

    k_star: int
    rho: int
    mu: Scalar
    eigenvalue: Scalar
    contours: tuple

    def to_json_dict(self) -> dict:
        return {
            "k_star": self.k_star,
            "rho": self.rho,
            "mu": scalar_to_json(self.mu),
            "lambda": scalar_to_json(self.eigenvalue),
            "contours": [[scalar_to_json(v) for v in c] for c in self.contours],
        }


def default_cap(size: int, sigma: int) -> int:
    return 10 * size * size + 10 * sigma


def detect_regime(
    traj: Trajectory,
    spectral: SpectralSummary,
    k_cap: int | None = None,
) -> RegimeReport:
    """Find (k*, rho, mu) by hashing exact normalized states.

    Walks the given trajectory and, when it is shorter than needed,
    continues iterating its matrix internally up to the cap
    (default 10·N² + 10·sigma).
    """
    P = traj.matrix
    lam = spectral.eigenvalue
    cap = default_cap(traj.size, spectral.sigma) if k_cap is None else k_cap

    seen: dict = {}
    ys = []
    xs = []
    x = traj.states[0]
    k = 0
    first = repeat = None
    while k <= cap:
        y = _normalized_state(x, lam, k)
        if y in seen:
            first, repeat = seen[y], k
            ys.append(y)
            xs.append(x)
            break
        seen[y] = k
        ys.append(y)
        xs.append(x)
        x = traj.states[k + 1] if k + 1 <= traj.k_max else P.apply(x)
        k += 1
    if first is None:
        raise CapExceededError(
            f"no periodic regime within {cap} steps; "
            "raise the cap or check that the matrix is irreducible",
            k_reached=cap,
        )

    rho = repeat - first
    # The first repeated value of a deterministic map already gives the
    # minimal period; double-check against all proper divisors anyway.
    for d in range(1, rho):
        if rho % d == 0 and ys[first + d] == ys[first]:
            raise VerificationError("first repeat distance was not minimal")
    mu = canonical(lam * rho)
    for i in range(traj.size):
        if canonical(xs[first + rho][i] - xs[first][i]) != mu:
            raise VerificationError("observed shift disagrees with rho * lambda")
    return RegimeReport(
        k_star=first,
        rho=rho,
        mu=mu,
        eigenvalue=lam,
        contours=tuple(ys[first : first + rho]),
    )


def cycletime(report: RegimeReport) -> Scalar:
    """Exact asymptotic growth rate mu / rho (equal for every cell)."""
    return canonical(Fraction(report.mu) / report.rho)


def per_node_estimates(traj: Trajectory, k: int | None = None) -> tuple:
    """Finite-horizon diagnostics x_i(k) / k, exact rationals."""
    if k is None:
        k = traj.k_max
    if not (1 <= k <= traj.k_max):
        raise DimensionError(f"k must be in 1..{traj.k_max}, got {k}")
    xk = traj.states[k]
    return tuple(canonical(Fraction(xk[i], k)) for i in range(traj.size))


def verify_regime(
    report: RegimeReport, P: MaxPlusMatrix, spectral: SpectralSummary
) -> bool:
    """Re-check every regime invariant by direct matrix-vector products.

    ``spectral`` is the summary of P, as for :func:`detect_regime`.  True
    iff rho >= 1, rho divides sigma(P), mu equals rho times the eigenvalue
    of P, consecutive contours map into each other under P, and every
    contour is an eigenvector of P^⊗rho with eigenvalue mu.
    """
    lam = spectral.eigenvalue
    rho = report.rho
    if rho < 1 or spectral.sigma % rho != 0:
        return False
    if canonical(report.eigenvalue) != canonical(lam):
        return False
    if canonical(report.mu) != canonical(lam * rho):
        return False
    if len(report.contours) != rho or report.k_star < 0:
        return False
    # P maps each contour to the next one shifted by lambda (wrapping).
    for m, c in enumerate(report.contours):
        nxt = report.contours[(m + 1) % rho]
        if P.apply(c) != vec_scale(lam, nxt):
            return False
    # Each contour is an eigenvector of P^⊗rho: apply P rho times.
    for c in report.contours:
        x = c
        for _ in range(rho):
            x = P.apply(x)
        if x != vec_scale(report.mu, c):
            return False
    return True


def _csv_text(traj: Trajectory, eigenvalue: Scalar | None = None) -> str:
    n = traj.size
    header = ["k"] + [f"x_{i + 1}" for i in range(n)]
    if eigenvalue is not None:
        header += [f"y_{i + 1}" for i in range(n)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for k, x in enumerate(traj.states):
        row = [k] + [format_scalar(v) for v in x]
        if eigenvalue is not None:
            row += [format_scalar(v) for v in _normalized_state(x, eigenvalue, k)]
        writer.writerow(row)
    return buf.getvalue()


def write_trajectory_csv(traj: Trajectory, path, eigenvalue: Scalar | None = None):
    """CSV with header k, x_1..x_N and, when lambda is known, the
    companion normalized columns y_1..y_N."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(traj, eigenvalue))
