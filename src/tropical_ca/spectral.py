"""Spectral theory of irreducible max-plus matrices.

A square matrix A induces a precedence graph: arc j -> i exists exactly when
A[i, j] is finite, so column index = arc start, row index = arc end.  The
layer reads that graph in one shape, the out-arc view of
:func:`build_graph`: ``succ[j]`` lists ``(i, w)`` for each arc j -> i,
ascending in i, made by :func:`~tropical_ca.semiring.out_arcs` in one
pass over the matrix's arc store.  Tarjan's components, Howard's policy
iteration and the longest-path search all read views of that shape.  The
eigenvalue of an irreducible matrix is the maximum circuit mean

    lambda = max over elementary circuits c of weight(c) / length(c)

computed here with Howard's policy iteration on each strongly connected
component with an arc (see :func:`_howard`).  Each iteration costs O(n + m)
for n nodes and m arcs, and few are needed in practice (Dasdan, Irani and
Gupta, 1999).  It reads the arcs of ``IntFrame(succ)``
(:class:`~tropical_ca.semiring.IntFrame`), the weights scaled to ints by
their common denominator, so values and biases are ints and no Fraction
enters the loop.

Everything else is read off the normalized graph of (-lambda) ⊗ A, whose
arc weights w - lambda leave its heaviest circuits at weight zero and no
circuit positive:

* Howard's final bias v, on an irreducible matrix, is a finite potential
  of the normalized graph: v_j + w <= v_i on every normalized arc j -> i.
* An arc is tight when equality holds.  Around a circuit the potential
  differences cancel, so a circuit weighs zero iff all its arcs are tight,
  whichever potential is used.  The critical graph (nodes and arcs of the
  circuits of mean lambda) is therefore the tight arcs whose two ends
  share a strongly connected component of the tight subgraph, and its
  maximal strongly connected subgraphs are the tight components that hold
  such an arc.  So :func:`analyze` runs Tarjan twice: once on the graph,
  to check that it is irreducible, and once on the tight subgraph.
* The cyclicity sigma is the lcm, over the maximal strongly connected
  subgraphs of the critical graph, of the gcd of their circuit lengths.
* One eigenvector per such subgraph is the column of the Kleene star of the
  normalized matrix at its smallest node: the longest-path weights from
  that node, one :func:`~tropical_ca.semiring.longest_paths`, the search
  that ``MaxPlusMatrix.star`` runs per column.  Columns at nodes of one
  subgraph are shifts of each other, so one spans them all.  The
  subgraphs, and so the basis vectors, are listed in descending order of
  their smallest node.

Each search costs O(n·m) at worst and no n×n product is formed.  The
normalized graph is the arcs of ``IntFrame(succ, lambda)``, int weights
s·w - p with lambda = p/s, so the searches run on Python ints, test
tightness by exact equality and divide by s once at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CapExceededError,
    DimensionError,
    NoCircuitError,
    ReducibleMatrixError,
)
from .semiring import (
    E,
    IntFrame,
    MaxPlusMatrix,
    Scalar,
    canonical,
    longest_paths,
    out_arcs,
    scalar_to_json,
)


def build_graph(matrix: MaxPlusMatrix) -> list:
    """The out-arc view of a square matrix: ``succ[j]`` lists ``(i, w)``
    for each arc j -> i, w = A[i, j], ascending in i: the arcs of
    :meth:`MaxPlusMatrix.finite_rows` turned round by
    :func:`~tropical_ca.semiring.out_arcs`."""
    if not matrix.is_square():
        raise DimensionError("precedence graph of a non-square matrix")
    return out_arcs(matrix.finite_rows(), matrix.cols)


class SccDecomposition(NamedTuple):
    """Strongly connected components, numbered in topological order of the
    condensation (every arc between two components goes from the
    lower-numbered one to the higher-numbered one)."""

    components: tuple  # tuple of tuples of node indices, each ascending
    component_of: tuple  # node index -> component number


def scc_decompose(succ: list) -> SccDecomposition:
    """Iterative Tarjan over an out-arc view (see :func:`build_graph`; only
    the ends i of its pairs are read).  Components pop in reverse
    topological order, so reversing the emission order yields the
    deterministic numbering.  A node whose component has popped gets index
    n, above every lowlink, so it needs no on-stack flag."""
    n = len(succ)
    index = [-1] * n
    lowlink = [0] * n
    stack: list[int] = []
    emitted: list[tuple] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, arcs = work[-1]
            for w, _weight in arcs:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                low = lowlink[v]
                if low == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    emitted.append(tuple(sorted(comp)))
                elif low < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = low

    components = tuple(reversed(emitted))
    component_of = [0] * n
    for ci, comp in enumerate(components):
        for v in comp:
            component_of[v] = ci
    return SccDecomposition(components, tuple(component_of))


def _howard_cap(node_count: int, arc_count: int) -> int:
    """Most policies Howard's iteration may evaluate on one component.

    No polynomial bound on the count is proven.  The slowest inputs known
    (Hansen and Zwick, 2010) take about 2n evaluations on n nodes and 2n
    arcs, and Omega(n^2) on Theta(n^2) arcs; they conjecture that m
    evaluations always suffice.  The cap is twice that, plus a margin for
    small graphs; each evaluation costs O(n + m).
    """
    return 2 * arc_count + node_count + 100


def _howard(succ: list) -> tuple:
    """Howard's policy iteration for the maximum cycle mean of a strongly
    connected graph with at least one arc (Cochet-Terrasson, Cohen,
    Gaubert, McGettrick and Quadrat, 1998).

    ``succ`` is an out-arc view with int weights.  A policy picks one arc
    into each node, kept as its ``(j, w)``; the arcs into a node are
    weighed in ascending j, and a tie keeps the first.  Following the
    picked arcs backwards from any node ends in a circuit; its mean p/q is
    the node's value, and the node's bias x is the weight, less p/q per
    arc, of the picked path down to the smallest node of that circuit,
    whose bias is 0.  Values are kept as reduced pairs (p, q) and biases
    scaled by q, all ints, so two values compare by cross-multiplying.

    While the values differ, each node of a smaller value is re-pointed,
    by a breadth-first search along the arcs out of the nodes of the
    greatest value, to a path into a circuit of that value; the graph is
    strongly connected, so the search reaches every node.  Once they are
    equal, a node moves to an in-arc that strictly raises its bias.  A
    circuit this closes has a greater mean, so the values never fall; a
    circuit kept keeps its root and the root's bias 0, so while the values
    stay the biases only rise: no policy comes back.  When no
    node moves, every value is lambda = p/q and x_i = max_j (q·w_ij - p +
    x_j) at every node i.

    Returns (p, q, x).  Raises CapExceededError after :func:`_howard_cap`
    evaluations.
    """
    n = len(succ)
    policy = [None] * n
    for j, row in enumerate(succ):
        for i, w in row:
            if policy[i] is None or w > policy[i][1]:
                policy[i] = (j, w)
    cap = _howard_cap(n, sum(map(len, succ)))
    for _ in range(cap):
        # Value determination: one walk per circuit of the policy graph.
        means = []  # (p, q) per circuit
        value = [-1] * n  # node -> index into means, -1 while unvisited
        x = [0] * n
        for start in range(n):
            if value[start] >= 0:
                continue
            path = []
            on_path = set()
            v = start
            while value[v] < 0 and v not in on_path:
                path.append(v)
                on_path.add(v)
                v = policy[v][0]
            if value[v] < 0:  # the walk closed a new circuit at v
                s = path.index(v)
                circuit = path[s:]
                total = sum(policy[u][1] for u in circuit)
                g = math.gcd(total, len(circuit))
                k = len(means)
                means.append((total // g, len(circuit) // g))
                r = circuit.index(min(circuit))
                value[circuit[r]] = k
                # Each node's bias follows from that of the node it picks,
                # so fill the circuit back from the root, then the tail.
                path = path[:s] + circuit[r + 1:] + circuit[:r]
            else:
                k = value[v]
            p, q = means[k]
            for u in reversed(path):
                j, w = policy[u]
                x[u] = q * w - p + x[j]
                value[u] = k

        p, q = means[0]
        for tp, tq in means:
            if tp * q > p * tq:
                p, q = tp, tq
        reached = [means[k] == (p, q) for k in value]
        frontier = [v for v in range(n) if reached[v]]
        changed = len(frontier) < n
        while frontier:
            nxt = []
            for j in frontier:
                for i, w in succ[j]:
                    if not reached[i]:
                        reached[i] = True
                        policy[i] = (j, w)
                        nxt.append(i)
            frontier = nxt
        if changed:
            continue
        best = x.copy()
        for j, row in enumerate(succ):
            xj = x[j] - p
            for i, w in row:
                cand = q * w + xj
                if cand > best[i]:
                    best[i] = cand
                    policy[i] = (j, w)
                    changed = True
        if not changed:
            return p, q, x
    raise CapExceededError(
        f"Howard's policy iteration did not settle within {cap} evaluations",
        k_reached=cap,
    )


def _component_views(view: list, dec: SccDecomposition) -> list:
    """Per component, ``view`` restricted to the arcs inside it, nodes
    numbered by their rank in the component."""
    rank = [0] * len(view)
    for comp in dec.components:
        for t, v in enumerate(comp):
            rank[v] = t
    comp_of = dec.component_of
    subs = [[[] for _ in comp] for comp in dec.components]
    for j, row in enumerate(view):
        c = comp_of[j]
        out = subs[c][rank[j]]
        for i, w in row:
            if comp_of[i] == c:
                out.append((rank[i], w))
    return subs


def _cycle_mean(view: list, dec: SccDecomposition) -> tuple:
    """(p, q, x): the maximum cycle mean of an int view is p / q, and x is
    Howard's bias on a component that attains it, its nodes numbered by
    rank.  Raises NoCircuitError on an acyclic graph."""
    best = None
    for sub in _component_views(view, dec):
        if sub[0]:  # the component has an arc
            p, q, x = _howard(sub)
            if best is None or p * best[1] > best[0] * q:
                best = (p, q, x)
    if best is None:
        raise NoCircuitError(
            "the precedence graph has no circuit, so the eigenvalue is undefined"
        )
    return best


def max_cycle_mean(matrix: MaxPlusMatrix) -> Scalar:
    """Maximum over all elementary circuits of weight/length.

    Works on reducible matrices too (circuits never straddle components);
    raises NoCircuitError on an acyclic graph.
    """
    succ = build_graph(matrix)
    frame = IntFrame(succ)
    p, q, _x = _cycle_mean(frame.arcs, scc_decompose(succ))
    return canonical(Fraction(p, q * frame.s))


class CriticalGraph(NamedTuple):
    """Nodes and arcs lying on some circuit of maximum mean."""

    node_count: int
    nodes: tuple  # ascending node indices
    arcs: tuple  # (start j, end i) pairs sorted by (j, i)
    eigenvalue: Scalar
    # Node tuples of the maximal strongly connected subgraphs, in
    # descending order of their smallest node: the order of the eigenbasis.
    components: tuple


def _critical_components(dec: SccDecomposition, arcs) -> list:
    """(nodes, arcs) of each maximal strongly connected subgraph of the
    critical graph, in descending order of smallest node.  ``dec`` is the
    decomposition of the tight subgraph and ``arcs`` the critical arcs, the
    tight arcs inside one of its components; the subgraphs are the
    components that hold one.  The arcs are grouped by the component of
    their start in one pass, each group in the order of ``arcs``."""
    comp_of = dec.component_of
    groups: dict[int, list] = {}
    for arc in arcs:
        groups.setdefault(comp_of[arc[0]], []).append(arc)
    comps = dec.components
    order = sorted(groups, key=lambda c: comps[c][0], reverse=True)
    return [(comps[c], groups[c]) for c in order]


def _component_cyclicity(comp: tuple, arcs: list) -> int:
    """gcd of the circuit lengths of one strongly connected component.

    BFS levels from a root: every arc u -> v closes walks whose length
    mismatch is level[u] + 1 - level[v], and the gcd of those mismatches
    over all arcs equals the gcd of all circuit lengths.  A solitary node
    without arcs has cyclicity 1 by convention.
    """
    if not arcs:
        return 1
    succ: dict[int, list] = {v: [] for v in comp}
    for (j, i) in arcs:
        succ[j].append(i)
    root = comp[0]
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for (u, v) in arcs:
        g = math.gcd(g, abs(level[u] + 1 - level[v]))
    return g if g > 0 else 1


class SpectralSummary(NamedTuple):
    """Everything the downstream timing analysis needs about one matrix."""

    eigenvalue: Scalar
    sigma: int
    critical: CriticalGraph
    eigenbasis: tuple  # tuple of vectors (tuples of Scalar)

    def to_json_dict(self) -> dict:
        """JSON form with 1-based node indices (the external convention)."""
        return {
            "lambda": scalar_to_json(self.eigenvalue),
            "sigma": self.sigma,
            "critical_nodes": [i + 1 for i in self.critical.nodes],
            "critical_arcs": [[j + 1, i + 1] for (j, i) in self.critical.arcs],
            "eigenbasis": [
                [scalar_to_json(x) for x in vec] for vec in self.eigenbasis
            ],
        }


def analyze(matrix: MaxPlusMatrix) -> SpectralSummary:
    """Single pass producing eigenvalue, cyclicity, critical graph and the
    eigenvector basis of an irreducible matrix (algorithm in the module
    docstring).  It builds one out-arc view and runs Tarjan twice."""
    succ = build_graph(matrix)
    dec = scc_decompose(succ)
    if len(dec.components) != 1:
        raise ReducibleMatrixError(
            "matrix is reducible (precedence graph not strongly connected); "
            "this library only analyzes irreducible matrices"
        )
    frame = IntFrame(succ)
    p, q, v = _cycle_mean(frame.arcs, dec)
    lam = canonical(Fraction(p, q * frame.s))
    # The normalized graph: its int weights s·w - p carry the scale of
    # Howard's bias v, which is a potential of it.
    frame = IntFrame(succ, lam)
    norm = frame.arcs
    tight = [
        [arc for arc in row if v[arc[0]] - v[j] == arc[1]]
        for j, row in enumerate(norm)
    ]
    tdec = scc_decompose(tight)
    comp_of = tdec.component_of
    arcs = tuple(
        (j, i)
        for j, row in enumerate(tight)
        for i, _w in row
        if comp_of[i] == comp_of[j]
    )
    parts = _critical_components(tdec, arcs)
    nodes = tuple(sorted(x for comp, _arcs in parts for x in comp))
    crit = CriticalGraph(
        len(succ), nodes, arcs, lam, tuple(comp for comp, _arcs in parts)
    )
    sigma = 1
    basis = []
    for comp, comp_arcs in parts:
        sigma = math.lcm(sigma, _component_cyclicity(comp, comp_arcs))
        z = [None] * len(norm)
        z[comp[0]] = E
        basis.append(frame.vector(longest_paths(norm, z)))
    return SpectralSummary(lam, sigma, crit, tuple(basis))
