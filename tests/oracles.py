"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: direct loops, exhaustive
enumeration, Fraction arithmetic on plain list-of-list grids with
float("-inf") marking absent arcs.  Nothing imports from tropical_ca, so
agreement between the two code bases is evidence, not circularity.  A
library matrix enters only through :func:`dense` and :func:`is_irreducible`,
which read its arcs (``finite_rows()``) and nothing else; powers, stars and
the onset of the power sequence are computed on the grids.
"""

import math
from fractions import Fraction

NEG_INF = float("-inf")


# -- dense max-plus matrices as plain grids ------------------------------------


def grid_identity(n):
    return [[0 if i == j else NEG_INF for j in range(n)] for i in range(n)]


def grid_mul(a, b):
    """Triple-loop max-plus product, the textbook definition."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[NEG_INF] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            best = NEG_INF
            for k in range(inner):
                if a[i][k] != NEG_INF and b[k][j] != NEG_INF:
                    cand = a[i][k] + b[k][j]
                    if cand > best:
                        best = cand
            out[i][j] = best
    return out


def grid_power(a, k):
    out = grid_identity(len(a))
    for _ in range(k):
        out = grid_mul(out, a)
    return out


def grid_oplus(a, b):
    """Entry-wise max of two grids of equal shape."""
    return [list(map(max, r, s)) for r, s in zip(a, b, strict=True)]


def grid_star(a):
    """Kleene star E ⊕ A ⊕ ... ⊕ A^(n-1), by its powers.  It equals the
    infinite sum only when no circuit has positive weight."""
    out = grid_identity(len(a))
    for k in range(1, len(a)):
        out = grid_oplus(out, grid_power(a, k))
    return out


def dense(a):
    """The grid of a MaxPlusMatrix, read from its arcs alone."""
    grid = [[NEG_INF] * a.cols for _ in range(a.rows)]
    for i, row in enumerate(a.finite_rows()):
        for j, w in row:
            grid[i][j] = w
    return grid


def grid_apply(a, vec):
    return [
        max(
            (a[i][k] + vec[k] for k in range(len(vec))
             if a[i][k] != NEG_INF and vec[k] != NEG_INF),
            default=NEG_INF,
        )
        for i in range(len(a))
    ]


def vec_oplus(u, v):
    """Entry-wise max of two vectors of equal length."""
    return tuple(max(a, b) for a, b in zip(u, v, strict=True))


def vec_scale(alpha, v):
    """alpha (x) v: alpha added to each entry (NEG_INF absorbs, as a float
    sum)."""
    return tuple(alpha + x for x in v)


def transmission_grid(n, tau):
    """T of a timing network: T[i][j] = tau_ij on each arc j -> i, with
    ``tau`` keyed (receiver i, sender j)."""
    grid = [[NEG_INF] * n for _ in range(n)]
    for (i, j), value in tau.items():
        grid[i][j] = value
    return grid


# -- circuits and spectral quantities -------------------------------------------


def grid_arcs(grid):
    """Arc map (start j, end i) -> weight; entry (i, j) finite means j -> i."""
    n = len(grid)
    return {
        (j, i): grid[i][j]
        for i in range(n)
        for j in range(n)
        if grid[i][j] != NEG_INF
    }


def elementary_circuits(n, arcs):
    """All elementary circuits as node sequences [v0, ..., v_{L-1}].

    Each circuit is emitted exactly once, rooted at its smallest node;
    the DFS explores only nodes >= root, so no rotation duplicates.
    """
    succ = {v: [] for v in range(n)}
    for (j, i) in arcs:
        succ[j].append(i)
    for lst in succ.values():
        lst.sort()
    found = []

    def walk(root, v, path, on_path):
        for w in succ[v]:
            if w == root:
                found.append(list(path))
            elif w > root and w not in on_path:
                on_path.add(w)
                path.append(w)
                walk(root, w, path, on_path)
                path.pop()
                on_path.remove(w)

    for root in range(n):
        walk(root, root, [root], {root})
    return found


def circuit_weight(circuit, arcs):
    L = len(circuit)
    return sum(arcs[(circuit[t], circuit[(t + 1) % L])] for t in range(L))


def max_circuit_mean(grid):
    """Exhaustive maximum of weight/length over elementary circuits.

    Returns an exact Fraction, or None for an acyclic graph.
    """
    arcs = grid_arcs(grid)
    best = None
    for circuit in elementary_circuits(len(grid), arcs):
        mean = Fraction(circuit_weight(circuit, arcs), len(circuit))
        if best is None or mean > best:
            best = mean
    return best


def karp_cycle_mean(grid):
    """Karp's maximum cycle mean (1978), per strongly connected component.

    D[k][v] = best weight of a walk of exactly k arcs from the component's
    first node to v; the component's mean is max_v min_k (D[m][v] -
    D[k][v]) / (m - k) over its m nodes.  Returns an exact Fraction, or
    None for an acyclic graph.
    """
    arcs = grid_arcs(grid)
    best = None
    for comp in scc_partition(len(grid), arcs):
        nodes = sorted(comp)
        pos = {v: p for p, v in enumerate(nodes)}
        local = [
            (pos[j], pos[i], w) for (j, i), w in arcs.items() if j in comp and i in comp
        ]
        if not local:
            continue
        m = len(nodes)
        D = [[NEG_INF] * m for _ in range(m + 1)]
        D[0][0] = 0
        for k in range(1, m + 1):
            prev, cur = D[k - 1], D[k]
            for (u, v, w) in local:
                if prev[u] != NEG_INF and prev[u] + w > cur[v]:
                    cur[v] = prev[u] + w
        for v in range(m):
            if D[m][v] == NEG_INF:
                continue
            worst = min(
                Fraction(D[m][v] - D[k][v], m - k)
                for k in range(m)
                if D[k][v] != NEG_INF
            )
            if best is None or worst > best:
                best = worst
    return best


def critical_parts(grid):
    """(nodes, arcs) lying on some circuit of maximum mean, by enumeration."""
    arcs = grid_arcs(grid)
    circuits = elementary_circuits(len(grid), arcs)
    means = [
        (Fraction(circuit_weight(c, arcs), len(c)), c) for c in circuits
    ]
    top = max(m for (m, _c) in means)
    nodes = set()
    crit_arcs = set()
    for mean, c in means:
        if mean == top:
            nodes.update(c)
            L = len(c)
            crit_arcs.update((c[t], c[(t + 1) % L]) for t in range(L))
    return nodes, crit_arcs


def scc_partition(n, arc_pairs):
    """Components via Floyd-Warshall reachability: i ~ j iff paths both ways."""
    reach = [[False] * n for _ in range(n)]
    for (j, i) in arc_pairs:
        reach[j][i] = True
    for k in range(n):
        rk = reach[k]
        for u in range(n):
            if reach[u][k]:
                ru = reach[u]
                for v in range(n):
                    if rk[v]:
                        ru[v] = True
    comps = set()
    for v in range(n):
        comps.add(
            frozenset(
                u
                for u in range(n)
                if u == v or (reach[u][v] and reach[v][u])
            )
        )
    return comps


# -- references over tropical_ca's matrices and on grids ------------------------


def is_irreducible(a):
    """True when the precedence graph of a square MaxPlusMatrix is strongly
    connected.  A single node is one component with or without a
    self-loop."""
    arcs = [(j, i) for i, row in enumerate(a.finite_rows()) for j, _w in row]
    return len(scc_partition(a.rows, arcs)) == 1


def mat_plus(a):
    """A+ = A (x) A* of a grid: best strictly positive-length walk
    weights, where no circuit is positive."""
    return grid_mul(a, grid_star(a))


def matrix_power_onset(a, summary, k_cap=None):
    """Smallest k with A^(k+sigma) = (lambda*sigma) (x) A^k for a grid a,
    sigma and lambda from its spectral summary.  Once the equality holds
    at k it holds for every larger exponent (multiply both sides by A), so
    the first hit is the onset.  The search stops at 10 n^2 steps by
    default."""
    shift = summary.eigenvalue * summary.sigma
    n = len(a)
    cap = 10 * n * n if k_cap is None else k_cap
    a_sigma = grid_power(a, summary.sigma)
    current = grid_identity(n)
    for k in range(cap + 1):
        if grid_mul(current, a_sigma) == [[v + shift for v in row] for row in current]:
            return k
        current = grid_mul(current, a)
    raise AssertionError(f"power sequence not periodic within {cap} steps")


def eigenspace_membership(basis, v):
    """True when v is a max-plus combination of the basis vectors b_c.  The
    greatest candidate coefficients are the residuals
    a_c = min_r (v_r - b_c[r]); v is a member iff they reconstruct v."""
    if NEG_INF in v:
        return False
    coeffs = [min(x - e for x, e in zip(v, b)) for b in basis]
    recon = [
        max((a + b[r] for a, b in zip(coeffs, basis)), default=NEG_INF)
        for r in range(len(v))
    ]
    return recon == list(v)


# -- random instances ------------------------------------------------------------


def random_irreducible_grid(rng, n, lo=-9, hi=9, density=0.35, period=1):
    """Random integer matrix whose graph is strongly connected: a Hamiltonian
    cycle through a shuffled node order plus density-sprinkled extra arcs.

    With period > 1 (dividing n) the t-th node of the order is in class
    t mod period and every arc leads to the next class, so every circuit
    length, and with it the cyclicity, is a multiple of period."""
    if n % period:
        raise ValueError(f"period {period} does not divide n = {n}")
    order = list(range(n))
    rng.shuffle(order)
    arc_set = {(order[t], order[(t + 1) % n]) for t in range(n)}
    cls = {v: t % period for t, v in enumerate(order)}
    for j in range(n):
        for i in range(n):
            if (
                (j, i) not in arc_set
                and (cls[j] + 1 - cls[i]) % period == 0
                and rng.random() < density
            ):
                arc_set.add((j, i))
    grid = [[NEG_INF] * n for _ in range(n)]
    for (j, i) in sorted(arc_set):
        grid[i][j] = rng.randint(lo, hi)
    return grid


# -- trajectories and regimes ------------------------------------------------------


def regime_by_hashing(grid, x0, lam, cap):
    """(k_star, rho, mu, contours) of x(k+1) = grid ⊗ x(k) by hashing every
    normalized state y(k) = x(k) - lam·k in Fractions: the first value seen
    twice, at k_star and k_star + rho, pins both.  None past the cap."""
    lam = Fraction(lam)
    seen, ys = {}, []
    x = [Fraction(v) for v in x0]
    for k in range(cap + 1):
        y = tuple(v - lam * k for v in x)
        if y in seen:
            first = seen[y]
            rho = k - first
            return first, rho, lam * rho, tuple(ys[first:])
        seen[y] = k
        ys.append(y)
        x = grid_apply(grid, x)
    return None


def cyclic_regime_holds(grid, lam, sigma, rho, mu, contours):
    """The regime invariants, longhand in Fractions: rho >= 1 divides
    sigma, mu = rho·lam, there are rho contours, grid ⊗ c_m = lam + c_{m+1}
    around them, and grid^rho ⊗ c = mu + c for each."""
    if rho < 1 or sigma % rho or mu != rho * lam or len(contours) != rho:
        return False
    for m, c in enumerate(contours):
        nxt = contours[(m + 1) % rho]
        if grid_apply(grid, list(c)) != [v + lam for v in nxt]:
            return False
        x = list(c)
        for _ in range(rho):
            x = grid_apply(grid, x)
        if x != [v + mu for v in c]:
            return False
    return True


def trajectory_csv_longhand(states, lam):
    """trajectory.csv text: k, the x columns and the y = x - lam·k
    columns, each value written as an int, p/q in lowest terms or eps."""

    def text(v):
        if v == NEG_INF:
            return "eps"
        v = Fraction(v)
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"

    n = len(states[0])
    header = ["k"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    lam = Fraction(lam)
    for k, x in enumerate(states):
        cells = [str(k)] + [text(v) for v in x] + [text(v - lam * k) for v in x]
        lines.append(",".join(cells))
    return "\r\n".join(lines) + "\r\n"


# -- plots -----------------------------------------------------------------------

# The renderers' geometry and palette, stated again: pixels per time unit
# and per cell, the SVG margin, the state, background and contour
# colours, and the PGM grays.  ``metadata`` below is the sorted (key,
# value) pairs that a file's header comment lists.
TIME_SCALE, CELL_PX, MARGIN = 2, 8, 12
COLOR0, COLOR1, BACKGROUND, CONTOUR_COLOR = "#20242c", "#f2ead7", "#ffffff", "#c03a2b"
GRAY0, GRAY1, GRAY_BG = 0, 255, 127


def pixmap_parse(text: str):
    """Read back a P2 pixmap as (width, height, rows).  Text that is not
    a P2 pixmap of its stated size raises ValueError."""
    tokens = []
    for line in text.splitlines():
        tokens += line.split("#", 1)[0].split()
    if tokens[:1] != ["P2"] or len(tokens) < 4:
        raise ValueError("not a P2 pixmap")
    width, height, _maxval, *values = map(int, tokens[1:])
    if len(values) != width * height:
        raise ValueError("pixmap size mismatch")
    return width, height, [values[r * width : (r + 1) * width] for r in range(height)]


def hold_intervals(run, i):
    """(start, end, bit) of cell i for k = 0..k_max - 1: it holds s_i(k)
    over [x_i(k), x_i(k + 1)), read from the run's two records."""
    times = [x[i] for x in run.trajectory.states]
    return tuple(zip(times, times[1:], [s[i] for s in run.states]))


def async_pixmap_grid(run, metadata, version):
    """P2 text of an async run's memory blocks, from a full grid with one
    store and one str() per pixel.  ``version`` is the package version the
    header comment names."""
    n = run.spec.size
    traj = run.trajectory
    t0 = min(min(x) for x in traj.states)
    t1 = max(traj.states[-1])
    s = TIME_SCALE
    height = max(1, math.ceil((t1 - t0) * s))
    width = n * CELL_PX
    grid = [[GRAY_BG] * width for _ in range(height)]
    for i in range(n):
        for (a, b, bit) in hold_intervals(run, i):
            r_lo = math.ceil((a - t0) * s)
            r_hi = math.ceil((b - t0) * s)  # exclusive
            gray = GRAY1 if bit else GRAY0
            for r in range(r_lo, min(r_hi, height)):
                row = grid[r]
                for c in range(i * CELL_PX, (i + 1) * CELL_PX):
                    row[c] = gray
    lines = ["P2", f"# tropical-ca {version}"]
    lines += [f"# {k}: {v}" for k, v in metadata]
    lines.append(f"{width} {height}")
    lines.append("255")
    lines += [" ".join(str(v) for v in row) for row in grid]
    return "\n".join(lines) + "\n"


def fmt_coordinate(v):
    """Coordinate text: ints bare, whole rationals as ints, other
    rationals via repr of the float."""
    if isinstance(v, int):
        return str(v)
    if v.denominator == 1:
        return str(v.numerator)
    return repr(float(v))


def svg_header(width, height, metadata, version):
    f = fmt_coordinate
    parts = [f"tropical-ca {version}"] + [f"{k}={v}" for k, v in metadata]
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{f(width)}" '
        f'height="{f(height)}" viewBox="0 0 {f(width)} {f(height)}">',
        "<!-- " + " | ".join(parts) + " -->",
        f'<rect x="0" y="0" width="{f(width)}" height="{f(height)}" '
        f'fill="{BACKGROUND}"/>',
    ]


def contour_plot_vertices(traj, metadata, version, states=None):
    """SVG contour plot with both coordinates of every vertex computed and
    formatted on the spot."""
    f = fmt_coordinate
    n = traj.size
    t0 = min(min(x) for x in traj.states)
    t1 = max(max(x) for x in traj.states)
    width = 2 * MARGIN + (n - 1) * CELL_PX
    height = 2 * MARGIN + (t1 - t0) * TIME_SCALE

    def xpix(i):
        return MARGIN + i * CELL_PX

    def ypix(t):
        return MARGIN + (t - t0) * TIME_SCALE

    lines = svg_header(width, height, metadata, version)
    for k, x in enumerate(traj.states):
        pts = " ".join(f"{f(xpix(i))},{f(ypix(x[i]))}" for i in range(n))
        if n > 1:
            lines.append(
                f'<polyline points="{pts}" fill="none" '
                f'stroke="{CONTOUR_COLOR}" stroke-width="1"/>'
            )
        if states is not None:
            for i in range(n):
                fill = COLOR1 if states[k][i] else COLOR0
                lines.append(
                    f'<circle cx="{f(xpix(i))}" cy="{f(ypix(x[i]))}" '
                    f'r="3" fill="{fill}" stroke="#555555" stroke-width="0.5"/>'
                )
        elif n == 1:
            lines.append(
                f'<circle cx="{f(xpix(0))}" cy="{f(ypix(x[0]))}" '
                f'r="2" fill="{CONTOUR_COLOR}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def spacetime_async_vertices(run, metadata, version, stage="plain"):
    """SVG memory blocks (and, for stage "contours", the update contours)
    with every coordinate computed and formatted on the spot."""
    f = fmt_coordinate
    n = run.spec.size
    traj = run.trajectory
    t0 = min(min(x) for x in traj.states)
    t1 = max(max(x) for x in traj.states)
    width = 2 * MARGIN + n * CELL_PX
    height = 2 * MARGIN + (t1 - t0) * TIME_SCALE

    def ypix(t):
        return MARGIN + (t - t0) * TIME_SCALE

    lines = svg_header(width, height, metadata, version)
    for i in range(n):
        x = MARGIN + i * CELL_PX
        for (a, b, bit) in hold_intervals(run, i):
            fill = COLOR1 if bit else COLOR0
            lines.append(
                f'<rect x="{f(x)}" y="{f(ypix(a))}" '
                f'width="{CELL_PX}" height="{f((b - a) * TIME_SCALE)}" '
                f'fill="{fill}"/>'
            )
    if stage == "contours":
        half = Fraction(CELL_PX, 2)
        for x_vec in traj.states:
            pts = " ".join(
                f"{f(MARGIN + i * CELL_PX + half)},{f(ypix(x_vec[i]))}"
                for i in range(n)
            )
            lines.append(
                f'<polyline points="{pts}" fill="none" '
                f'stroke="{CONTOUR_COLOR}" stroke-width="1"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def spacetime_sync_cells(states, metadata, version):
    """SVG synchronous space-time diagram, one formatted rect per cell and
    step."""
    n = len(states[0])
    width = 2 * MARGIN + n * CELL_PX
    height = 2 * MARGIN + len(states) * CELL_PX
    lines = svg_header(width, height, metadata, version)
    for k, s in enumerate(states):
        y = MARGIN + k * CELL_PX
        for i, bit in enumerate(s):
            fill = COLOR1 if bit else COLOR0
            x = MARGIN + i * CELL_PX
            lines.append(
                f'<rect x="{x}" y="{y}" width="{CELL_PX}" '
                f'height="{CELL_PX}" fill="{fill}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def stg_dot_longhand(n, successors, on_attractor, metadata, version):
    """DOT text of a state transition graph over n cells, one line per
    state and per arc, built as one list and joined once."""
    bold = ', penwidth=2, color="#c03a2b"'
    lines = ["digraph stg {", f"  // tropical-ca {version}"]
    lines += [f"  // {k}: {v}" for k, v in metadata]
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=box, fontname="monospace"];')
    for code in range(2 ** n):
        label = format(code, "b").zfill(n)
        style = bold if on_attractor[code] else ""
        lines.append(f'  "{label}" [label="{label}"{style}];')
    for code in range(2 ** n):
        label = format(code, "b").zfill(n)
        target = format(successors[code], "b").zfill(n)
        style = f" [{bold[2:]}]" if on_attractor[code] else ""
        lines.append(f'  "{label}" -> "{target}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- synchronous CA --------------------------------------------------------------


def ring150_step(state):
    """Rule 150 on a nearest-neighbour ring, written out longhand."""
    n = len(state)
    return tuple(
        (state[(i - 1) % n] + state[i] + state[(i + 1) % n]) % 2
        for i in range(n)
    )


def orbit_entry_period(step, s0):
    """(entry, period) of the forward orbit by plain list scanning."""
    seen = []
    s = s0
    while s not in seen:
        seen.append(s)
        s = step(s)
    entry = seen.index(s)
    return entry, len(seen) - entry


def census_by_iteration(step, n):
    """Attractor census over all 2^n states, walking every orbit to its cycle.

    Cycles are canonicalized exactly like the library census (rotated so
    the lexicographically smallest string leads, sorted by period then
    leading string), but derived here from scratch.
    """
    def decode(code):
        return tuple((code >> (n - 1 - i)) & 1 for i in range(n))

    def to_str(s):
        return "".join(str(b) for b in s)

    cycles = {}
    on_cycle = set()
    for code in range(1 << n):
        s = decode(code)
        trail = []
        index = {}
        while s not in index:
            index[s] = len(trail)
            trail.append(s)
            s = step(s)
        if s in on_cycle:
            continue  # this walk ran into a cycle already listed
        cycle = trail[index[s]:]
        strings = [to_str(c) for c in cycle]
        low = strings.index(min(strings))
        strings = strings[low:] + strings[:low]
        cycles[strings[0]] = strings
        on_cycle.update(cycle)
    ordered = sorted(cycles.values(), key=lambda c: (len(c), c[0]))
    return {
        "fixed_points": [c[0] for c in ordered if len(c) == 1],
        "cycles": [
            {"period": len(c), "states": c} for c in ordered if len(c) > 1
        ],
        "transient_count": (1 << n) - len(on_cycle),
    }


def gf2_rank(vectors):
    """Rank over GF(2) of vectors given as int bit masks, by elimination
    on their leading bits."""
    pivots = {}  # leading bit -> a vector of the basis with that bit
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def linear_census_counts(step, n):
    """(states on cycles, fixed points) of the GF(2)-linear map T on n-bit
    codes, given as step(code) -> code; column b of T is step(1 << b).

    The images of T, T^2, ... shrink until T^n at the latest, and T maps
    that last image onto itself, so it permutes it: its 2^rank(T^n) states
    are the states on cycles.  The fixed points are the kernel of T + I:
    2^(n - rank(T + I)) of them.
    """
    columns = [step(1 << b) for b in range(n)]

    def apply(v):
        out = 0
        for b in range(n):
            if v >> b & 1:
                out ^= columns[b]
        return out

    power = [1 << b for b in range(n)]  # the columns of T^0
    for _ in range(n):
        power = [apply(v) for v in power]
    identity_plus = [c ^ (1 << b) for b, c in enumerate(columns)]
    return 1 << gf2_rank(power), 1 << (n - gf2_rank(identity_plus))


def ring_neighbourhoods(n):
    """(left, self, right) of every cell of an n-cell ring."""
    return [((i - 1) % n, i, (i + 1) % n) for i in range(n)]


def longhand_step(rule, nbhd, state):
    """One synchronous step, cell by cell.

    ``rule`` is ("eca", number) or ("parity",); ``nbhd[i]`` lists the
    cells that cell i reads, in rule order.  An ECA cell takes bit
    4*left + 2*self + right of the rule number; a parity cell the sum of
    its inputs mod 2 (0 when it reads nobody).
    """
    return tuple(
        longhand_rule(rule, [state[j] for j in nbhd[i]]) for i in range(len(state))
    )


def longhand_rule(rule, inputs):
    """The new state of one cell from its inputs in rule order."""
    if rule[0] == "eca":
        left, centre, right = inputs
        return (rule[1] >> (4 * left + 2 * centre + right)) & 1
    return sum(inputs) % 2


def orbit_by_dict(step, s0):
    """(states, entry, period) of the forward orbit: states s(0) up to the
    last state before the first repeat, found by a dict of visit times."""
    seen = {}
    states = []
    s = s0
    while s not in seen:
        seen[s] = len(states)
        states.append(s)
        s = step(s)
    return states, seen[s], len(states) - seen[s]


# -- asynchronous CA -------------------------------------------------------------


def event_simulation_longhand(rule, nbhd, xi, tau, s0, x0, k_max, fault_cell):
    """Message-passing run of the asynchronous CA, one message at a time.

    Each cycle, cell i hears from every j in ``nbhd[i]`` (rule order) the
    state j computed in the previous cycle, arriving at x_j + tau[(i, j)]
    (``tau`` keyed (receiver, sender)); it updates at the last arrival
    plus xi[i].  ``fault_cell`` (or None) updates at its first arrival
    instead, using for each neighbour the last value received from it,
    at first that neighbour's s0.  ``rule`` is as in longhand_step.
    Returns (times, states): lists of k_max + 1 tuples.
    """
    n = len(s0)
    times = [tuple(x0)]
    states = [tuple(s0)]
    known = {(i, j): s0[j] for i in range(n) for j in nbhd[i]}
    for _ in range(k_max):
        prev_t, prev_s = times[-1], states[-1]
        new_t = []
        new_s = []
        for i in range(n):
            arrivals = [(prev_t[j] + tau[(i, j)], j) for j in nbhd[i]]
            if i == fault_cell:
                receive = min(a for (a, _j) in arrivals)
                inputs = []
                for (a, j) in arrivals:
                    if a <= receive:
                        known[(i, j)] = prev_s[j]
                    inputs.append(known[(i, j)])
            else:
                receive = max(a for (a, _j) in arrivals)
                for (_a, j) in arrivals:
                    known[(i, j)] = prev_s[j]
                inputs = [prev_s[j] for j in nbhd[i]]
            new_t.append(receive + xi[i])
            new_s.append(longhand_rule(rule, inputs))
        times.append(tuple(new_t))
        states.append(tuple(new_s))
    return times, states
