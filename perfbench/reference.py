"""A fixed reference loop, timed alongside the program to gauge CPU speed.

On a shared host the speed of one core drifts by up to 1.8x over minutes,
as other tenants come and go, and a pass of the program slows with it.
The reference loop is pure-Python work of the kinds the program does
(tuple states stepped and hashed into a dict, small max-plus products over
ints, a grid of numbers joined into text), fixed here and independent of
the program's code, so a change to the program cannot speed it up.  The
benchmark runs it between commands and divides each pass's wall time by
the mean loop time measured around that pass.  Set-up time, which must
be reported in seconds, is divided the same way by the loops run right
after it and multiplied by NOMINAL_LOOP_S.
"""

from __future__ import annotations

import time

LOOPS_PER_GAP = 4  # reference loops run before each command of a pass
# The loop's typical time on the 2-vCPU VM the benchmark was built on
# (medians of 6 to 11 ms were seen there): a fixed scale, so that set-up
# time reads in seconds at that speed.
NOMINAL_LOOP_S = 0.008


def reference_loop() -> int:
    """About 10 ms of fixed interpreter work; returns a checksum."""
    cells = 48
    state = tuple((i * 5 + 1) % 3 & 1 for i in range(cells))
    seen = {}
    for k in range(700):
        seen[state] = k
        state = tuple(state[i - 1] ^ state[i] ^ state[(i + 1) % cells] for i in range(cells))
    n = 24
    rows = [[(i * 7 + j * 13) % 31 for j in range(n)] for i in range(n)]
    cols = list(zip(*rows))
    prod = [[max(a + b for a, b in zip(r, c)) for c in cols] for r in rows]
    grid = [[(i * j + v) & 255 for j, v in enumerate(prod[i % n])] for i in range(240)]
    text = "\n".join(" ".join(map(str, row)) for row in grid)
    return len(seen) + len(text) + sum(map(sum, prod))


CHECKSUM = reference_loop()


def time_loops() -> list:
    """Seconds taken by each of LOOPS_PER_GAP reference loops run back to back."""
    times = []
    for _ in range(LOOPS_PER_GAP):
        start = time.perf_counter()
        if reference_loop() != CHECKSUM:
            raise RuntimeError("reference loop gave another checksum")
        times.append(time.perf_counter() - start)
    return times
