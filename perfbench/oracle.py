"""Answers recomputed without the servicerate code paths being timed.

Recovery sets come from solving the 2x2 system for every column pair, not
from scanning scalars. Matching numbers come from networkx (imported only
after the timed loop, so it never counts toward peak memory). The
fractional matching number is half a maximum matching of the bipartite
double cover. Integral feasibility is a plain search over disjoint sets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence


def recovery_sets(q: int, rows: Sequence[Sequence[int]]) -> list[list[tuple[int, ...]]]:
    """Per file, the server tuples (1-based) of every recovery set of size
    <= 2, in catalog order: singletons by column, then pairs in
    lexicographic order."""
    k, n = len(rows), len(rows[0])
    cols = [tuple(rows[r][j] % q for r in range(k)) for j in range(n)]
    nonzero = [j for j in range(n) if any(cols[j])]

    def unit_multiple(c: tuple[int, ...], i: int) -> bool:
        return c[i] != 0 and all(c[r] == 0 for r in range(k) if r != i)

    out: list[list[tuple[int, ...]]] = []
    for i in range(k):
        singles = [(j + 1,) for j in nonzero if unit_multiple(cols[j], i)]
        pairs = []
        for a, b in combinations(nonzero, 2):
            if _pair_recovers(cols[a], cols[b], i, q, unit_multiple):
                pairs.append((a + 1, b + 1))
        out.append(singles + pairs)
    return out


def _pair_recovers(ca, cb, i, q, unit_multiple) -> bool:
    k = len(ca)
    for r1, r2 in combinations(range(k), 2):
        det = (ca[r1] * cb[r2] - ca[r2] * cb[r1]) % q
        if det:
            break
    else:
        # parallel columns: a nonzero combination gives e_i only when both
        # are multiples of e_i and the field has room for 1 = a*s + b*t
        return q > 2 and unit_multiple(ca, i) and unit_multiple(cb, i)
    t1, t2 = int(r1 == i), int(r2 == i)
    inv = pow(det, -1, q)
    alpha = (t1 * cb[r2] - t2 * cb[r1]) * inv % q
    beta = (ca[r1] * t2 - ca[r2] * t1) * inv % q
    if not alpha or not beta:
        return False
    return all((alpha * x + beta * y - (r == i)) % q == 0 for r, (x, y) in enumerate(zip(ca, cb)))


def double_cover_matching(nvert: int, pairs: Sequence[tuple[int, int]], rng: random.Random) -> set[tuple[int, int]]:
    """A maximum matching of the bipartite double cover of a simple graph on
    vertices 1..nvert, as (left u, right v) pairs. Kuhn's augmenting paths,
    visiting vertices and neighbours in an order drawn from rng."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, nvert + 1)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    order = list(adj)
    rng.shuffle(order)
    for nb in adj.values():
        rng.shuffle(nb)
    right_mate: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in right_mate or augment(right_mate[v], seen):
                right_mate[v] = u
                return True
        return False

    for u in order:
        augment(u, set())
    return {(u, v) for v, u in right_mate.items()}


class CodeFacts:
    """Everything the checks need about one code, computed on first use."""

    def __init__(self, q: int, rows: Sequence[Sequence[int]]) -> None:
        self.q = q
        self.k, self.n = len(rows), len(rows[0])
        self.sets = recovery_sets(q, rows)
        self.counts = [len(s) for s in self.sets]
        # graph edges exactly as the service graph numbers them: a fresh
        # dummy vertex per singleton, in file-major catalog order
        self.edges: list[tuple[int, int, int]] = []
        nxt = self.n + 1
        for f, sets in enumerate(self.sets, start=1):
            for servers in sets:
                if len(servers) == 1:
                    self.edges.append((servers[0], nxt, f))
                    nxt += 1
                else:
                    self.edges.append((servers[0], servers[1], f))
        self.nvert = nxt - 1

    def simple_pairs(self, file: Optional[int] = None) -> list[tuple[int, int]]:
        return sorted({(u, v) for u, v, f in self.edges if file is None or f == file})

    def nx_graph(self, file: Optional[int] = None):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(1, self.nvert + 1))
        g.add_edges_from(self.simple_pairs(file))
        return g

    @cached_property
    def matching_number(self) -> int:
        return _nx_matching_size(self.nx_graph())

    @cached_property
    def fractional_matching_number(self) -> Fraction:
        return _nx_fractional(self.nx_graph())

    @cached_property
    def per_file_matching(self) -> list[int]:
        return [_nx_matching_size(self.nx_graph(f)) for f in range(1, self.k + 1)]

    @cached_property
    def per_file_fractional(self) -> list[Fraction]:
        return [_nx_fractional(self.nx_graph(f)) for f in range(1, self.k + 1)]

    @cached_property
    def bipartite_sides(self) -> Optional[list[int]]:
        """Sorted side sizes, putting each component's smallest vertex on
        side A, or None for an odd cycle."""
        import networkx as nx

        g = self.nx_graph()
        if not nx.is_bipartite(g):
            return None
        a = b = 0
        for comp in nx.connected_components(g):
            color = nx.bipartite.color(g.subgraph(comp))
            first = color[min(comp)]
            na = sum(1 for v in comp if color[v] == first)
            a, b = a + na, b + len(comp) - na
        return sorted([a, b])

    def integral_feasible(self, lam: Sequence[int]) -> bool:
        """lam[i] pairwise-disjoint recovery sets of each file i, disjoint
        across files too."""
        need = list(lam)
        if any(d > len(s) for d, s in zip(need, self.sets)):
            return False
        used: set[int] = set()

        def fill(f: int, start: int, left: int) -> bool:
            if left == 0:
                return f + 1 == self.k or fill(f + 1, 0, need[f + 1])
            sets = self.sets[f]
            for j in range(start, len(sets)):
                if used.isdisjoint(sets[j]):
                    used.update(sets[j])
                    if fill(f, j + 1, left - 1):
                        return True
                    used.difference_update(sets[j])
            return False

        return fill(0, 0, need[0])


def _nx_matching_size(g) -> int:
    import networkx as nx

    return len(nx.max_weight_matching(g, maxcardinality=True))


def _nx_fractional(g) -> Fraction:
    import networkx as nx

    cover = nx.Graph()
    left = [("L", v) for v in g.nodes]
    cover.add_nodes_from(left)
    cover.add_nodes_from(("R", v) for v in g.nodes)
    for u, v in g.edges:
        cover.add_edge(("L", u), ("R", v))
        cover.add_edge(("L", v), ("R", u))
    mate = nx.bipartite.hopcroft_karp_matching(cover, top_nodes=left)
    return Fraction(len(mate) // 2, 2)
