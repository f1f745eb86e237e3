"""Spectral theory of irreducible max-plus matrices.

A square matrix A induces a precedence graph: arc j -> i exists exactly when
A[i, j] is finite, so column index = arc start, row index = arc end.  The
eigenvalue of an irreducible matrix is the maximum circuit mean

    lambda = max over elementary circuits c of weight(c) / length(c)

computed here with Karp's dynamic program on each strongly connected
component, O(n·m) for n nodes and m arcs (exact rational arithmetic in
integer/rational mode).

Everything else is read off the normalized graph of (-lambda) ⊗ A, whose
arc weights w - lambda leave its heaviest circuits at weight zero and no
circuit positive:

* One Bellman-Ford from node 0 gives the longest-path weights v, a finite
  potential with v_j + w <= v_i on every normalized arc j -> i.
* An arc is tight when equality holds.  Around a circuit the potential
  differences cancel, so a circuit weighs zero iff all its arcs are tight.
  The critical graph (nodes and arcs of the circuits of mean lambda) is
  therefore the tight arcs whose two ends share a strongly connected
  component of the tight subgraph.
* The cyclicity sigma is the lcm, over the maximal strongly connected
  subgraphs of the critical graph, of the gcd of their circuit lengths.
* One eigenvector per such subgraph is the column of the Kleene star of the
  normalized matrix at its smallest node: the longest-path weights from
  that node, one more Bellman-Ford.

Each Bellman-Ford costs O(n·m) at worst and no n×n product is formed.  In
the exact modes the weights are scaled by the common denominator of lambda
and the entries, so the searches run on Python ints and divide once at the
end.  A value that still improves in round n would mean a positive circuit
and raises KleeneStarDivergenceError; in float mode only an improvement
above ``tol`` counts, since rounding can leave a normalized circuit an ulp
above zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    is_finite,
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


def _ratio(num: Scalar, den: int) -> Scalar:
    if isinstance(num, float):
        return num / den
    return canonical(Fraction(num, den))


def _karp_component(nodes: tuple, arcs: list) -> Scalar | None:
    """Karp's maximum cycle mean on one strongly connected component.

    D[k][v] = best weight of a walk from the source with exactly k arcs.
    Returns None when the component has no circuit (solitary node without
    a self-loop).
    """
    if not arcs:
        return None
    m = len(nodes)
    pos = {v: p for p, v in enumerate(nodes)}
    local = [(pos[j], pos[i], w) for (j, i, w) in arcs]
    D = [[EPS] * m for _ in range(m + 1)]
    D[0][0] = E
    for k in range(1, m + 1):
        prev, cur = D[k - 1], D[k]
        for (u, v, w) in local:
            if prev[u] != EPS:
                cand = prev[u] + w
                if cand > cur[v]:
                    cur[v] = cand
    best = None
    last = D[m]
    for v in range(m):
        if last[v] == EPS:
            continue
        worst = None
        for k in range(m):
            if D[k][v] == EPS:
                continue
            r = _ratio(last[v] - D[k][v], m - k)
            if worst is None or r < worst:
                worst = r
        if worst is not None and (best is None or worst > best):
            best = worst
    return best


def max_cycle_mean(matrix: MaxPlusMatrix) -> Scalar:
    """Maximum over all elementary circuits of weight/length.

    Works on reducible matrices too (circuits never straddle components);
    raises NoCircuitError on an acyclic graph.
    """
    graph = build_graph(matrix)
    return _graph_cycle_mean(graph, scc_decompose(graph))


def _graph_cycle_mean(graph: PrecedenceGraph, dec: SccDecomposition) -> Scalar:
    best = None
    for comp in dec.components:
        comp_set = set(comp)
        arcs = [a for a in graph.arcs if a[0] in comp_set and a[1] in comp_set]
        value = _karp_component(comp, arcs)
        if value is not None and (best is None or value > best):
            best = value
    if best is None:
        raise NoCircuitError(
            "the precedence graph has no circuit, so the eigenvalue is undefined"
        )
    return canonical(best)


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
        sub = PrecedenceGraph(
            self.node_count, tuple((j, i, E) for (j, i) in self.arcs)
        )
        dec = scc_decompose(sub)
        critical = set(self.nodes)
        return tuple(c for c in dec.components if set(c) <= critical)


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


def critical_graph(matrix: MaxPlusMatrix, tol: float | None = 1e-9) -> CriticalGraph:
    """Nodes and arcs on the circuits of maximum mean (see :func:`analyze`)."""
    return analyze(matrix, tol).critical


def cyclicity(matrix: MaxPlusMatrix, tol: float | None = 1e-9) -> int:
    """sigma(A): lcm over the maximal strongly connected subgraphs of the
    critical graph of the gcd of their circuit lengths."""
    return analyze(matrix, tol).sigma


def eigenvectors(matrix: MaxPlusMatrix, tol: float | None = 1e-9) -> list:
    """One eigenvector per maximal strongly connected subgraph of the
    critical graph: the column of (Ahat)* at the smallest node of the
    subgraph.  Columns at nodes of the same subgraph are scalar multiples
    of each other, so one representative spans the same set."""
    return list(analyze(matrix, tol).eigenbasis)


def eigenspace_membership(
    matrix: MaxPlusMatrix, v: Sequence[Scalar], tol: float | None = 1e-9
) -> bool:
    """True when v is a max-plus combination ⊕_c a_c ⊗ b_c of the basis
    eigenvectors.  The greatest candidate coefficients are the residuals
    a_c = min_r (v_r - b_c[r]); v is a member iff they reconstruct v."""
    if len(v) != matrix.rows:
        raise DimensionError("vector length does not match matrix size")
    basis = eigenvectors(matrix, tol)
    if any(is_eps(x) for x in v):
        return False
    coeffs = []
    for b in basis:
        coeffs.append(canonical(min(x - e for x, e in zip(v, b))))
    recon = [EPS] * len(v)
    for a, b in zip(coeffs, basis):
        for r, e in enumerate(b):
            recon[r] = oplus(recon[r], otimes(a, e))
    if tol is not None and any(isinstance(x, float) and is_finite(x) for x in v):
        return all(
            is_finite(w) and abs(w - x) <= tol for w, x in zip(recon, v)
        )
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


def _normalized_successors(graph: PrecedenceGraph, lam: Scalar):
    """(succ, scale): succ[j] lists (i, w) for the arcs j -> i of the
    normalized graph, ascending in i.

    In the exact modes w = scale·(A[i, j] - lambda) with ``scale`` the least
    common denominator of lambda and the entries, so every w is an int.
    With any float around, w = A[i, j] - lambda and ``scale`` is None.
    """
    succ = [[] for _ in range(graph.node_count)]
    weights = [w for (_j, _i, w) in graph.arcs]
    if any(isinstance(w, float) for w in [lam, *weights]):
        for (j, i, w) in graph.arcs:
            succ[j].append((i, w - lam))
        return succ, None
    scale = math.lcm(*(Fraction(w).denominator for w in [lam, *weights]))
    shift = int(lam * scale)
    for (j, i, w) in graph.arcs:
        succ[j].append((i, int(w * scale) - shift))
    return succ, scale


def _longest_paths(succ: list, source: int, slack) -> list:
    """Longest-path weights from ``source`` (EPS where unreachable).

    Bellman-Ford in rounds, each relaxing only the arcs out of the nodes
    improved in the round before.  After round k every value is at least
    the best walk of at most k arcs, so without a positive circuit nothing
    improves after round n - 1.  Round n is the circuit test: an
    improvement above ``slack`` there raises KleeneStarDivergenceError.
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
            if dist[j] + w > dist[i] + slack:
                raise KleeneStarDivergenceError(
                    "Kleene star diverges: the graph has a positive-weight circuit"
                )
    return dist


def analyze(matrix: MaxPlusMatrix, tol: float | None = 1e-9) -> SpectralSummary:
    """Single pass producing eigenvalue, cyclicity, critical graph and the
    eigenvector basis of an irreducible matrix (algorithm in the module
    docstring).  ``tol`` is the float-mode slack for zero tests; exact
    entries are compared exactly."""
    if not matrix.is_square():
        raise DimensionError("spectral analysis of a non-square matrix")
    graph = build_graph(matrix)
    dec = scc_decompose(graph)
    if len(dec.components) != 1:
        raise ReducibleMatrixError(
            "matrix is reducible (precedence graph not strongly connected); "
            "this library only analyzes irreducible matrices"
        )
    lam = _graph_cycle_mean(graph, dec)
    n = matrix.rows
    succ, scale = _normalized_successors(graph, lam)
    slack = tol if scale is None and tol is not None else 0
    v = _longest_paths(succ, 0, slack)
    tight = tuple(
        (j, i, E)
        for j in range(n)
        for (i, w) in succ[j]
        if abs(v[i] - v[j] - w) <= slack
    )
    comp_of = scc_decompose(PrecedenceGraph(n, tight)).component_of
    arcs = tuple((j, i) for (j, i, _w) in tight if comp_of[j] == comp_of[i])
    nodes = tuple(sorted({x for arc in arcs for x in arc}))
    crit = CriticalGraph(n, nodes, arcs, lam)
    sigma = 1
    basis = []
    for comp in crit.mscs():
        comp_set = set(comp)
        comp_arcs = [a for a in arcs if a[0] in comp_set and a[1] in comp_set]
        sigma = math.lcm(sigma, _component_cyclicity(comp, comp_arcs))
        column = _longest_paths(succ, comp[0], slack)
        if scale is not None:
            column = [canonical(Fraction(x, scale)) for x in column]
        basis.append(tuple(column))
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
