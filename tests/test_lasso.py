"""The Lasso record against runs written out longhand.

A Lasso(start, period, shift) says item j + period is item j plus shift
for every j >= start.  Its fold and repeat must give the items of the
run, its join the first start and least period at which two runs both
repeat, and the records that iterate and trace_orbit keep must fold to
the states that stepping gives.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_ca import ca
from tropical_ca.network import TimingParameters, build_p, regular_ring
from tropical_ca.trajectory import Lasso, iter_states, iterate

SHIFTS = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6))

# Runs are written out to WINDOW items.  A start and a period of at most
# 6 each give joint periods of at most 30; the brute-force search tries
# periods up to MAX_PERIOD and accepts one only where it holds over at
# least STRETCH items, more than any two candidate periods together, so
# that a period that holds there holds for the whole run (Fine and Wilf).
WINDOW, MAX_PERIOD, STRETCH = 160, 40, 90


@st.composite
def runs(draw):
    """(Lasso, items 0..end - 1) of a run with a drawn prefix, period and
    shift."""
    lasso = Lasso(draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(SHIFTS))
    items = draw(st.lists(st.integers(-3, 3), min_size=lasso.end, max_size=lasso.end))
    return lasso, items


def longhand(lasso: Lasso, items, count: int) -> list:
    """Items 0..count - 1: past end, each is the item a period before it
    plus the shift."""
    run = list(items[: lasso.end])
    while len(run) < count:
        run.append(run[-lasso.period] + lasso.shift)
    return run[:count]


def least(*longhands) -> Lasso:
    """The least period, and then the first start, from which every one
    of the runs repeats up to a shift of its own, searched item by item;
    the shift is the first run's."""
    for p in range(1, MAX_PERIOD + 1):
        start = 0
        for run in longhands:
            steps = [b - a for a, b in zip(run, run[p:])]
            s = len(steps) - 1
            while s and steps[s - 1] == steps[-1]:
                s -= 1
            start = max(start, s)
        if start <= WINDOW - p - STRETCH:
            first = longhands[0]
            return Lasso(start, p, first[start + p] - first[start])
    raise AssertionError("no period within the search")


@settings(max_examples=200, deadline=None)
@given(run=runs(), k=st.integers(0, 80))
def test_fold_and_repeat_equal_the_run_written_out(run, k):
    lasso, items = run
    want = longhand(lasso, items, k + 1)
    j, q = lasso.fold(k)
    if k < lasso.end:
        assert (j, q) == (k, 0)
    else:
        assert lasso.start <= j < lasso.end and k - j == q * lasso.period
    assert want[k] == items[j] + q * lasso.shift
    flat = longhand(lasso._replace(shift=0), items, k + 1)
    assert list(lasso.repeat(items, k + 1)) == flat
    assert list(lasso.repeat(items[: k + 1], k + 1)) == flat  # count <= end


@settings(max_examples=60, deadline=None)
@given(a=runs(), b=runs())
def test_join_is_the_first_start_and_least_period_of_both(a, b):
    # Each run's own record is its least one, found by the same search,
    # as join takes two least records.
    run_a, run_b = longhand(*a, WINDOW), longhand(*b, WINDOW)
    least_a, least_b = least(run_a), least(run_b)
    for lasso, run in ((least_a, run_a), (least_b, run_b)):
        for k in range(WINDOW):
            j, q = lasso.fold(k)
            assert run[k] == run[j] + q * lasso.shift
    assert least_a.join(least_b) == least(run_a, run_b)
    assert least_b.join(least_a) == least(run_b, run_a)


def ring_case(seed: int):
    """A ring of 3 to 7 cells under a random ECA rule, with int or
    quarter-unit timings, start times and state."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    spec = regular_ring(n, 3)
    den = rng.choice([1, 4])

    def draw(lo, hi):
        return Fraction(rng.randint(lo * den, hi * den), den)

    params = TimingParameters.create(
        [draw(1, 3) for _ in range(n)],
        {(i, j): draw(0, 2) for i, nb in enumerate(spec.neighbourhoods()) for j in nb},
    )
    x0 = tuple(draw(0, 6) for _ in range(n))
    s0 = tuple(rng.randint(0, 1) for _ in range(n))
    return ca.CARule.eca(rng.randrange(256)), spec, build_p(spec, params), x0, s0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k_max=st.integers(0, 60))
def test_the_records_of_a_ring_fold_to_its_stepped_states(seed, k_max):
    rule, spec, P, x0, s0 = ring_case(seed)
    traj = iterate(P, x0, k_max)
    x = list(iter_states(P, x0, k_max))
    rec = traj.recurrence
    held = traj.states if rec is None else traj.states[: rec.end]
    for k in range(k_max + 1):
        j, q = (k, 0) if rec is None else rec.fold(k)
        shift = q * rec.shift if q else 0
        assert x[k] == tuple(v + shift for v in held[j])
    trace = ca.trace_orbit(rule, spec, s0, k_max)
    s = ca.sync_states(rule, spec, s0, k_max)
    orbit = trace.recurrence
    assert orbit is None or orbit.shift == 0
    for k in range(k_max + 1):
        j = k if orbit is None else orbit.fold(k)[0]
        assert ca._decode(trace.codes[j], spec.size) == s[k]
