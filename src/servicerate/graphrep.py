"""Graph representation of a recovery-set catalog.

Servers are real vertices labeled "1".."n". Each size-1 recovery set hangs
off a fresh dummy vertex labeled "0" (capacity mirroring its real endpoint,
so the dummy never binds), which keeps the graph loop-free. Each recovery
set becomes one edge colored by its file; parallel edges across colors are
allowed, parallel edges within a color cannot arise.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .codes import RecoverySet, RecoverySetCatalog

__all__ = [
    "Vertex",
    "Edge",
    "ServiceGraph",
    "Bipartition",
    "build_graph",
    "is_bipartite",
    "export_dot",
]

DUMMY_LABEL = "0"

_DOT_PALETTE = ("magenta", "green", "blue", "orange", "purple", "brown", "cyan", "gold")


class Vertex(NamedTuple):
    id: int
    label: str
    capacity: Fraction
    is_dummy: bool


class Edge(NamedTuple):
    """One recovery set: endpoints u < v, colored by file; set_index is the
    0-based position inside that file's catalog list."""

    u: int
    v: int
    file: int
    set_index: int

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


class ServiceGraph:
    """Edge-colored multigraph over servers plus dummies."""

    __slots__ = ("catalog", "vertices", "edges", "n_real", "_adj")

    def __init__(
        self,
        catalog: RecoverySetCatalog,
        vertices: Sequence[Vertex],
        edges: Sequence[Edge],
        n_real: int,
    ) -> None:
        self.catalog = catalog
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.n_real = n_real
        adj: dict[int, list[int]] = {v.id: [] for v in self.vertices}
        for idx, e in enumerate(self.edges):
            adj[e.u].append(idx)
            adj[e.v].append(idx)
        self._adj = {vid: tuple(idxs) for vid, idxs in adj.items()}

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def dummy_count(self) -> int:
        return len(self.vertices) - self.n_real

    def vertex(self, vid: int) -> Vertex:
        return self.vertices[vid - 1]

    def vertex_ids(self) -> range:
        return range(1, len(self.vertices) + 1)

    def incident_edges(self, vid: int) -> tuple[int, ...]:
        return self._adj[vid]

    def has_unit_capacities(self) -> bool:
        return all(v.capacity == 1 for v in self.vertices)

    def recovery_set_of(self, edge_index: int) -> RecoverySet:
        e = self.edges[edge_index]
        return self.catalog.per_file[e.file - 1][e.set_index]

    def subgraph_of_file(self, file: int) -> "ServiceGraph":
        """Same vertices, only the edges of one color."""
        kept = [e for e in self.edges if e.file == file]
        return ServiceGraph(self.catalog, self.vertices, kept, self.n_real)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "label": v.label, "capacity": str(v.capacity)}
                for v in self.vertices
            ],
            "edges": [{"u": e.u, "v": e.v, "file": e.file} for e in self.edges],
        }


def build_graph(
    catalog: RecoverySetCatalog,
    mu: Optional[Sequence[int | Fraction]] = None,
) -> ServiceGraph:
    """Build the colored graph for a catalog under capacities mu (default all
    1). Float and bool capacities are refused, as in `region.as_demand`."""
    n = catalog.n
    if mu is None:
        caps = [Fraction(1)] * n
    else:
        if len(mu) != n:
            raise ValueError(f"capacity vector has length {len(mu)}, expected {n}")
        for j, m in enumerate(mu, start=1):
            if isinstance(m, (bool, float)):
                raise ValueError(f"capacity entry {j} is {m!r}, not an exact rational")
        caps = [Fraction(m) for m in mu]
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be nonnegative")
    vertices = [Vertex(j, str(j), caps[j - 1], False) for j in range(1, n + 1)]
    edges: list[Edge] = []
    next_id = n + 1
    for fi, sets in enumerate(catalog.per_file, start=1):
        for si, rs in enumerate(sets):
            if rs.size == 1:
                r = rs.servers[0]
                vertices.append(Vertex(next_id, DUMMY_LABEL, caps[r - 1], True))
                edges.append(Edge(r, next_id, fi, si))
                next_id += 1
            else:
                a, b = rs.servers
                edges.append(Edge(a, b, fi, si))
    return ServiceGraph(catalog, vertices, edges, n)


class Bipartition(NamedTuple):
    """side_a holds, for every component, the side of its smallest vertex id."""

    side_a: frozenset[int]
    side_b: frozenset[int]


def is_bipartite(graph: ServiceGraph) -> Optional[Bipartition]:
    """Two-color by BFS from the smallest uncolored id; None on an odd cycle."""
    color: dict[int, int] = {}
    for start in graph.vertex_ids():
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for idx in graph.incident_edges(v):
                e = graph.edges[idx]
                w = e.v if e.u == v else e.u
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side_a = frozenset(v for v, c in color.items() if c == 0)
    side_b = frozenset(v for v, c in color.items() if c == 1)
    return Bipartition(side_a, side_b)


def export_dot(graph: ServiceGraph) -> str:
    """Graphviz DOT text; one edge statement per recovery set, colored by file."""
    lines = ["graph service_rate {", "  node [shape=circle];"]
    for v in graph.vertices:
        extra = ", style=dashed" if v.is_dummy else ""
        lines.append(f'  v{v.id} [label="{v.label}"{extra}];')
    for e in graph.edges:
        color = _DOT_PALETTE[(e.file - 1) % len(_DOT_PALETTE)]
        lines.append(f'  v{e.u} -- v{e.v} [color={color}, label="f{e.file}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
