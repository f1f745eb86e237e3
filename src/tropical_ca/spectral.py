"""Spectral theory of irreducible max-plus matrices.

A square matrix A induces a precedence graph: arc j -> i exists exactly when
A[i, j] is finite, so column index = arc start, row index = arc end.  The
eigenvalue of an irreducible matrix is the maximum circuit mean

    lambda = max over elementary circuits c of weight(c) / length(c)

computed here with Howard's policy iteration on each strongly connected
component with an arc (see :func:`_howard`).  Each iteration costs O(n + m)
for n nodes and m arcs, and few are needed in practice (Dasdan, Irani and
Gupta, 1999).  The weights are scaled to ints by the common denominator of
the entries, so values and biases are ints and no Fraction enters the loop.

Everything else is read off the normalized graph of (-lambda) ⊗ A, whose
arc weights w - lambda leave its heaviest circuits at weight zero and no
circuit positive:

* Howard's final bias v, on an irreducible matrix, is a finite potential
  of the normalized graph: v_j + w <= v_i on every normalized arc j -> i.
* An arc is tight when equality holds.  Around a circuit the potential
  differences cancel, so a circuit weighs zero iff all its arcs are tight,
  whichever potential is used.  The critical graph (nodes and arcs of the
  circuits of mean lambda) is therefore the tight arcs whose two ends
  share a strongly connected component of the tight subgraph.
* The cyclicity sigma is the lcm, over the maximal strongly connected
  subgraphs of the critical graph, of the gcd of their circuit lengths.
* One eigenvector per such subgraph is the column of the Kleene star of the
  normalized matrix at its smallest node: the longest-path weights from
  that node, one Bellman-Ford.

Each Bellman-Ford costs O(n·m) at worst and no n×n product is formed.  The
normalized weights are scaled by the common denominator of lambda and the
entries, so the searches run on Python ints, test tightness by exact
equality and divide once at the end.  A value that still improves in round
n would mean a positive circuit and raises KleeneStarDivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .errors import (
    CapExceededError,
    DimensionError,
    KleeneStarDivergenceError,
    NoCircuitError,
    ReducibleMatrixError,
)
from .semiring import (
    EPS,
    E,
    MaxPlusMatrix,
    Scalar,
    canonical,
    is_eps,
    oplus,
    otimes,
    scalar_to_json,
)


@dataclass(frozen=True)
class PrecedenceGraph:
    """Weighted digraph of a square matrix: arc j -> i iff A[i, j] != eps."""

    node_count: int
    arcs: tuple  # tuple of (start j, end i, weight) sorted by (j, i)

    def predecessors(self, i: int) -> tuple:
        """Nodes j with an arc j -> i, ascending (the neighbourhood of i)."""
        return tuple(sorted(j for (j, to, _w) in self.arcs if to == i))

    def successors(self, j: int) -> tuple:
        return tuple(sorted(i for (f, i, _w) in self.arcs if f == j))

    def arc_set(self) -> frozenset:
        return frozenset((j, i) for (j, i, _w) in self.arcs)


def build_graph(matrix: MaxPlusMatrix) -> PrecedenceGraph:
    if not matrix.is_square():
        raise DimensionError("precedence graph of a non-square matrix")
    arcs = [
        (j, i, w) for i, row in enumerate(matrix.finite_rows()) for (j, w) in row
    ]
    arcs.sort(key=lambda a: (a[0], a[1]))
    return PrecedenceGraph(matrix.rows, tuple(arcs))


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components, numbered in topological order of the
    condensation (every condensation arc goes from a lower-numbered
    component to a higher-numbered one)."""

    components: tuple  # tuple of tuples of node indices, each ascending
    component_of: tuple  # node index -> component number
    condensation_arcs: tuple  # sorted tuple of (from_comp, to_comp) pairs


def _successor_lists(n: int, arcs) -> list:
    succ = [[] for _ in range(n)]
    for (j, i, _w) in arcs:
        succ[j].append(i)
    for lst in succ:
        lst.sort()
    return succ


def scc_decompose(graph: PrecedenceGraph) -> SccDecomposition:
    """Iterative Tarjan.  Components pop in reverse topological order, so
    reversing the emission order yields the deterministic numbering."""
    n = graph.node_count
    succ = _successor_lists(n, graph.arcs)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    emitted: list[tuple] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                emitted.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                lowlink[u] = min(lowlink[u], lowlink[v])

    components = tuple(reversed(emitted))
    component_of = [0] * n
    for ci, comp in enumerate(components):
        for v in comp:
            component_of[v] = ci
    cond = sorted(
        {
            (component_of[j], component_of[i])
            for (j, i, _w) in graph.arcs
            if component_of[j] != component_of[i]
        }
    )
    return SccDecomposition(components, tuple(component_of), tuple(cond))


def is_irreducible(matrix: MaxPlusMatrix) -> bool:
    """True when the precedence graph is strongly connected.  A single node
    counts as its own component whether or not it has a self-loop."""
    return len(scc_decompose(build_graph(matrix)).components) == 1


def _int_weights(arcs) -> tuple:
    """(scale, weights): the least common denominator of the arc weights
    and each weight times it, an int."""
    scale = math.lcm(*{w.denominator for (_j, _i, w) in arcs})
    return scale, [w.numerator * (scale // w.denominator) for (_j, _i, w) in arcs]


def _howard_cap(node_count: int, arc_count: int) -> int:
    """Most policies Howard's iteration may evaluate on one component.

    No polynomial bound on the count is proven.  The slowest inputs known
    (Hansen and Zwick, 2010) take about 2n evaluations on n nodes and 2n
    arcs, and Omega(n^2) on Theta(n^2) arcs; they conjecture that m
    evaluations always suffice.  The cap is twice that, plus a margin for
    small graphs; each evaluation costs O(n + m).
    """
    return 2 * arc_count + node_count + 100


def _howard(preds: list) -> tuple:
    """Howard's policy iteration for the maximum cycle mean of a strongly
    connected graph with at least one arc (Cochet-Terrasson, Cohen,
    Gaubert, McGettrick and Quadrat, 1998).

    ``preds[i]`` lists the ``(j, w)`` of the arcs j -> i, w an int.  A
    policy picks one arc into each node.  Following the picked arcs
    backwards from any node ends in a circuit; its mean p/q is the node's
    value, and the node's bias x is the weight, less p/q per arc, of the
    picked path down to the smallest node of that circuit, whose bias is
    0.  Values are kept as reduced pairs (p, q) and biases scaled by q,
    all ints, so two values compare by cross-multiplying.

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
    n = len(preds)
    succ = [[] for _ in range(n)]
    for i, row in enumerate(preds):
        for arc in row:
            succ[arc[0]].append((i, arc))
    policy = [max(row, key=itemgetter(1)) for row in preds]
    cap = _howard_cap(n, sum(map(len, preds)))
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
                for i, arc in succ[j]:
                    if not reached[i]:
                        reached[i] = True
                        policy[i] = arc
                        nxt.append(i)
            frontier = nxt
        if changed:
            continue
        for i in range(n):
            best = x[i]
            for arc in preds[i]:
                cand = q * arc[1] - p + x[arc[0]]
                if cand > best:
                    best = cand
                    policy[i] = arc
                    changed = True
        if not changed:
            return p, q, x
    raise CapExceededError(
        f"Howard's policy iteration did not settle within {cap} evaluations",
        k_reached=cap,
    )


def _component_preds(graph: PrecedenceGraph, dec: SccDecomposition, weights):
    """Per component, the ``preds`` lists of :func:`_howard` over the arcs
    inside it, nodes numbered by their rank in the component."""
    rank = [0] * graph.node_count
    for comp in dec.components:
        for t, v in enumerate(comp):
            rank[v] = t
    comp_of = dec.component_of
    preds = [[[] for _ in comp] for comp in dec.components]
    for (j, i, _w), w in zip(graph.arcs, weights):
        c = comp_of[j]
        if c == comp_of[i]:
            preds[c][rank[i]].append((rank[j], w))
    return preds


def _cycle_mean(graph: PrecedenceGraph, dec: SccDecomposition) -> tuple:
    """(p, q, x, scale, weights): the maximum cycle mean is p / (q·scale)
    and x is Howard's bias on a component that attains it, its nodes
    numbered by rank; ``weights`` are the arc weights times ``scale``.
    Raises NoCircuitError on an acyclic graph."""
    scale, weights = _int_weights(graph.arcs)
    best = None
    for preds in _component_preds(graph, dec, weights):
        if preds[0]:  # the component has an arc
            p, q, x = _howard(preds)
            if best is None or p * best[1] > best[0] * q:
                best = (p, q, x)
    if best is None:
        raise NoCircuitError(
            "the precedence graph has no circuit, so the eigenvalue is undefined"
        )
    return (*best, scale, weights)


def max_cycle_mean(matrix: MaxPlusMatrix) -> Scalar:
    """Maximum over all elementary circuits of weight/length.

    Works on reducible matrices too (circuits never straddle components);
    raises NoCircuitError on an acyclic graph.
    """
    graph = build_graph(matrix)
    p, q, _x, scale, _weights = _cycle_mean(graph, scc_decompose(graph))
    return canonical(Fraction(p, q * scale))


@dataclass(frozen=True)
class CriticalGraph:
    """Nodes and arcs lying on some circuit of maximum mean."""

    node_count: int
    nodes: tuple  # ascending node indices
    arcs: tuple  # (start j, end i) pairs sorted by (j, i)
    eigenvalue: Scalar

    def mscs(self) -> tuple:
        """Maximal strongly connected subgraphs of the critical graph,
        as tuples of node indices (deterministic order)."""
        return tuple(comp for comp, _arcs in self._mscs_arcs())

    def _mscs_arcs(self) -> list:
        """(nodes, arcs) of each of :meth:`mscs`, in its order; each arc
        list keeps the order of ``arcs``.  The arcs are grouped by the
        component of their start in one pass, not filtered per
        component."""
        sub = PrecedenceGraph(
            self.node_count, tuple((j, i, E) for (j, i) in self.arcs)
        )
        dec = scc_decompose(sub)
        comp_of = dec.component_of
        inside = [[] for _ in dec.components]
        for arc in self.arcs:
            c = comp_of[arc[0]]
            if c == comp_of[arc[1]]:
                inside[c].append(arc)
        critical = set(self.nodes)
        return [
            (comp, inside[c])
            for c, comp in enumerate(dec.components)
            if critical.issuperset(comp)
        ]


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


def critical_graph(matrix: MaxPlusMatrix) -> CriticalGraph:
    """Nodes and arcs on the circuits of maximum mean (see :func:`analyze`)."""
    return analyze(matrix).critical


def cyclicity(matrix: MaxPlusMatrix) -> int:
    """sigma(A): lcm over the maximal strongly connected subgraphs of the
    critical graph of the gcd of their circuit lengths."""
    return analyze(matrix).sigma


def eigenvectors(matrix: MaxPlusMatrix) -> list:
    """One eigenvector per maximal strongly connected subgraph of the
    critical graph: the column of (Ahat)* at the smallest node of the
    subgraph.  Columns at nodes of the same subgraph are scalar multiples
    of each other, so one representative spans the same set."""
    return list(analyze(matrix).eigenbasis)


def eigenspace_membership(matrix: MaxPlusMatrix, v: Sequence[Scalar]) -> bool:
    """True when v is a max-plus combination ⊕_c a_c ⊗ b_c of the basis
    eigenvectors.  The greatest candidate coefficients are the residuals
    a_c = min_r (v_r - b_c[r]); v is a member iff they reconstruct v."""
    if len(v) != matrix.rows:
        raise DimensionError("vector length does not match matrix size")
    basis = eigenvectors(matrix)
    if any(is_eps(x) for x in v):
        return False
    coeffs = []
    for b in basis:
        coeffs.append(canonical(min(x - e for x, e in zip(v, b))))
    recon = [EPS] * len(v)
    for a, b in zip(coeffs, basis):
        for r, e in enumerate(b):
            recon[r] = oplus(recon[r], otimes(a, e))
    return all(canonical(w) == canonical(x) for w, x in zip(recon, v))


@dataclass(frozen=True)
class SpectralSummary:
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


def _longest_paths(succ: list, source: int) -> list:
    """Longest-path weights from ``source`` (EPS where unreachable).

    Bellman-Ford in rounds, each relaxing only the arcs out of the nodes
    improved in the round before.  After round k every value is at least
    the best walk of at most k arcs, so without a positive circuit nothing
    improves after round n - 1.  Round n is the circuit test: an
    improvement there raises KleeneStarDivergenceError.
    """
    n = len(succ)
    dist = [EPS] * n
    dist[source] = E
    frontier = (source,)
    for _ in range(n - 1):
        improved = {}
        for j in frontier:
            dj = dist[j]
            for i, w in succ[j]:
                cand = dj + w
                if cand > dist[i]:
                    dist[i] = cand
                    improved[i] = None
        if not improved:
            return dist
        frontier = improved
    for j in frontier:
        for i, w in succ[j]:
            if dist[j] + w > dist[i]:
                raise KleeneStarDivergenceError(
                    "Kleene star diverges: the graph has a positive-weight circuit"
                )
    return dist


def analyze(matrix: MaxPlusMatrix) -> SpectralSummary:
    """Single pass producing eigenvalue, cyclicity, critical graph and the
    eigenvector basis of an irreducible matrix (algorithm in the module
    docstring)."""
    if not matrix.is_square():
        raise DimensionError("spectral analysis of a non-square matrix")
    graph = build_graph(matrix)
    dec = scc_decompose(graph)
    if len(dec.components) != 1:
        raise ReducibleMatrixError(
            "matrix is reducible (precedence graph not strongly connected); "
            "this library only analyzes irreducible matrices"
        )
    p, q, v, scale, weights = _cycle_mean(graph, dec)
    lam = canonical(Fraction(p, q * scale))
    # The normalized graph, weights scaled by q·scale so that they are ints
    # like Howard's bias v, which is a potential of it.
    scale *= q
    n = matrix.rows
    succ = [[] for _ in range(n)]
    for (j, i, _w), w in zip(graph.arcs, weights):
        succ[j].append((i, q * w - p))
    tight = tuple(
        (j, i, E) for j in range(n) for (i, w) in succ[j] if v[i] - v[j] == w
    )
    comp_of = scc_decompose(PrecedenceGraph(n, tight)).component_of
    arcs = tuple((j, i) for (j, i, _w) in tight if comp_of[j] == comp_of[i])
    nodes = tuple(sorted({x for arc in arcs for x in arc}))
    crit = CriticalGraph(n, nodes, arcs, lam)
    sigma = 1
    basis = []
    for comp, comp_arcs in crit._mscs_arcs():
        sigma = math.lcm(sigma, _component_cyclicity(comp, comp_arcs))
        column = _longest_paths(succ, comp[0])
        basis.append(
            tuple(
                x // scale if x % scale == 0 else Fraction(x, scale) for x in column
            )
        )
    return SpectralSummary(lam, sigma, crit, tuple(basis))


def matrix_power_onset(matrix: MaxPlusMatrix, k_cap: int | None = None) -> int:
    """Smallest k with A^⊗(k+sigma) = (lambda·sigma) ⊗ A^⊗k.

    Once the equality holds at k it holds for every larger exponent
    (multiply both sides by A), so the first hit is the onset.  The search
    is capped at 10·n² steps by default.
    """
    summary = analyze(matrix)
    sigma = summary.sigma
    shift = canonical(summary.eigenvalue * sigma)
    n = matrix.rows
    cap = 10 * n * n if k_cap is None else k_cap
    a_sigma = matrix.power(sigma)
    current = MaxPlusMatrix.identity(n)
    for k in range(cap + 1):
        if current @ a_sigma == current.scale(shift):
            return k
        current = current @ matrix
    raise CapExceededError(
        f"power sequence did not become periodic within {cap} steps",
        k_reached=cap,
    )
