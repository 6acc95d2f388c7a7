"""Matchings, vertex covers and the allocation polytope on service graphs.

`allocation_program` is the one builder of the allocation polytope: one
variable per edge (= per recovery set), one capacity row per server. Its
total-weight maximum is the service capacity, and under unit capacities it
is the fractional matching LP, so capacity = m_f holds by construction.
`fractional_matching_number` solves that LP and returns m_f with one value
per edge; `fractional_matching_oracle` is the independent route, half the
matching number of the bipartite double cover.

Maximum matching uses the blossom (odd-cycle contraction) augmenting-path
method, so non-bipartite graphs are exact. Minimum vertex cover uses the
alternating-reachability construction on bipartite graphs and an exact
branch-and-bound elsewhere, guarded by a size cap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import GuardError
from .graphrep import ServiceGraph, is_bipartite
from .lp import EQ, LE, LinearProgram, solve_max

__all__ = [
    "Matching",
    "VertexCover",
    "allocation_program",
    "max_matching",
    "fractional_matching_number",
    "fractional_matching_oracle",
    "min_vertex_cover",
    "COVER_SEARCH_CAP",
]

COVER_SEARCH_CAP = 64


class Matching(NamedTuple):
    """Edge indices into the graph's edge tuple, pairwise vertex-disjoint."""

    edges: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertex_pairs(self, graph: ServiceGraph) -> list[tuple[int, int]]:
        return [graph.edges[i].endpoints() for i in self.edges]

    def color_counts(self, graph: ServiceGraph) -> dict[int, int]:
        counts: dict[int, int] = {}
        for i in self.edges:
            f = graph.edges[i].file
            counts[f] = counts.get(f, 0) + 1
        return counts

    def validate(self, graph: ServiceGraph) -> None:
        seen: set[int] = set()
        for i in self.edges:
            e = graph.edges[i]
            if e.u in seen or e.v in seen:
                raise ValueError(f"edges share vertex at edge index {i}")
            seen.add(e.u)
            seen.add(e.v)


class VertexCover(NamedTuple):
    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def validate(self, graph: ServiceGraph) -> None:
        for e in graph.edges:
            if e.u not in self.vertices and e.v not in self.vertices:
                raise ValueError(f"edge ({e.u}, {e.v}) is uncovered")


def _simple_adjacency(graph: ServiceGraph) -> list[list[int]]:
    """Collapse parallel edges; sorted neighbor lists, vertex id v at index v - 1."""
    nbr: list[set[int]] = [set() for _ in graph.vertices]
    for e in graph.edges:
        nbr[e.u - 1].add(e.v - 1)
        nbr[e.v - 1].add(e.u - 1)
    return [sorted(s) for s in nbr]


def _blossom_matching(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """Maximum matching on a simple graph; returns the mate array (-1 = free).

    Classic contraction scheme: grow alternating trees from free vertices,
    shrink odd cycles to their base, augment when another free vertex is hit.
    """
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        mark = [False] * n
        x = a
        while True:
            x = base[x]
            mark[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if mark[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def try_augment(root: int) -> bool:
        nonlocal used, parent, base
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = [root]
        while queue:
            v = queue.pop(0)
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: contract it down to the common base
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment along the tree path
                        w = to
                        while w != -1:
                            pw = parent[w]
                            nxt = match[pw]
                            match[w] = pw
                            match[pw] = w
                            w = nxt
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            try_augment(v)
    return match


def max_matching(graph: ServiceGraph) -> Matching:
    """A maximum matching; between parallel edges the smallest index is taken."""
    adj = _simple_adjacency(graph)
    mate = _blossom_matching(len(adj), adj)
    first_edge: dict[tuple[int, int], int] = {}
    for i, e in enumerate(graph.edges):
        key = (e.u, e.v)
        if key not in first_edge:
            first_edge[key] = i
    chosen = []
    for i, m in enumerate(mate):
        if m > i:
            chosen.append(first_edge[(i + 1, m + 1)])
    return Matching(tuple(sorted(chosen)))


def allocation_program(
    graph: ServiceGraph,
    lam: Optional[Sequence[Fraction]] = None,
    weights: Optional[Sequence[Fraction]] = None,
) -> LinearProgram:
    """The allocation polytope: one variable per edge, in flat catalog order,
    and one `<= capacity` row per server 1..n_real (a dummy's lone edge is
    already capped by its server). With lam, one `= lam_i` row per color and
    no objective; without it, the objective weighs each edge by its color's
    entry of `weights`, all ones by default (the total edge weight)."""
    m = graph.edge_count
    if lam is not None:
        objective: Sequence = ()
    elif weights is None:
        objective = [1] * m
    else:
        objective = [weights[e.file - 1] for e in graph.edges]
    prog = LinearProgram(m, objective)
    for vid in range(1, graph.n_real + 1):
        coeffs = [0] * m
        for i in graph.incident_edges(vid):
            coeffs[i] = 1
        prog.add_constraint(coeffs, LE, graph.vertex(vid).capacity)
    if lam is not None:
        for f, demand in enumerate(lam, start=1):
            prog.add_constraint([int(e.file == f) for e in graph.edges], EQ, demand)
    return prog


def fractional_matching_number(
    graph: ServiceGraph,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact LP route: the capacity program under unit vertex budgets. Returns
    m_f and a maximizer, one value per edge in edge order."""
    if not graph.has_unit_capacities():
        raise ValueError("fractional matching requires unit capacities")
    out = solve_max(allocation_program(graph))
    if out.status != "optimal":  # always feasible (0) and bounded
        raise RuntimeError(f"fractional matching LP is {out.status}")
    return out.value, out.assignment


def fractional_matching_oracle(graph: ServiceGraph) -> Fraction:
    """Independent route: half the matching number of the bipartite double
    cover (each edge {u, v} becomes (u', v'') and (v', u''))."""
    adj = _simple_adjacency(graph)
    n = len(adj)
    double: list[list[int]] = [[] for _ in range(2 * n)]
    for i in range(n):
        for j in adj[i]:
            double[i].append(j + n)
            double[j + n].append(i)
    mate = _blossom_matching(2 * n, double)
    size = sum(1 for x in mate if x != -1) // 2
    return Fraction(size, 2)


def _koenig_cover(graph: ServiceGraph, side_a: frozenset[int]) -> VertexCover:
    matching = max_matching(graph)
    mate: dict[int, int] = {}
    for u, v in matching.vertex_pairs(graph):
        mate[u] = v
        mate[v] = u
    visited: set[int] = set()
    frontier = [a for a in sorted(side_a) if a not in mate]
    visited.update(frontier)
    while frontier:
        nxt: list[int] = []
        for a in frontier:
            for idx in graph.incident_edges(a):
                e = graph.edges[idx]
                b = e.v if e.u == a else e.u
                if mate.get(a) == b or b in visited:
                    continue  # A -> B along non-matching edges only
                visited.add(b)
                back = mate.get(b)
                if back is not None and back not in visited:
                    visited.add(back)
                    nxt.append(back)
        frontier = nxt
    cover = frozenset(v for v in side_a if v not in visited) | frozenset(
        v for v in visited if v not in side_a
    )
    result = VertexCover(cover)
    result.validate(graph)
    if result.size != matching.size:  # bipartite: cover meets matching
        raise RuntimeError(f"Koenig cover has {result.size} vertices, matching has {matching.size} edges")
    return result


def _branch_and_bound_cover(graph: ServiceGraph) -> VertexCover:
    pairs = sorted({(e.u, e.v) for e in graph.edges})

    def greedy_matching_bound(remaining: list[tuple[int, int]]) -> int:
        taken: set[int] = set()
        count = 0
        for u, v in remaining:
            if u not in taken and v not in taken:
                taken.add(u)
                taken.add(v)
                count += 1
        return count

    best: Optional[set[int]] = None

    def search(remaining: list[tuple[int, int]], chosen: set[int]) -> None:
        nonlocal best
        if best is not None and len(chosen) + greedy_matching_bound(remaining) >= len(best):
            return
        if not remaining:
            best = set(chosen)
            return
        u, v = remaining[0]
        for w in (u, v):
            search([p for p in remaining if w not in p], chosen | {w})

    search(pairs, set())
    if best is None:  # the first leaf always records a cover
        raise RuntimeError("cover search found no cover")
    result = VertexCover(frozenset(best))
    result.validate(graph)
    return result


def min_vertex_cover(graph: ServiceGraph) -> VertexCover:
    """Exact minimum vertex cover. Non-bipartite graphs above
    COVER_SEARCH_CAP vertices are refused rather than approximated."""
    bip = is_bipartite(graph)
    if bip is not None:
        return _koenig_cover(graph, bip.side_a)
    if graph.vertex_count > COVER_SEARCH_CAP:
        raise GuardError(
            f"exact cover too large: {graph.vertex_count} vertices on a "
            f"non-bipartite graph (cap {COVER_SEARCH_CAP})"
        )
    return _branch_and_bound_cover(graph)
