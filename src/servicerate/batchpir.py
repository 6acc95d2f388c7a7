"""Batch- and PIR-style parameter verification through the integral region.

A code serves batch parameter t when every integer demand vector summing to
t is servable by pairwise-disjoint whole recovery sets (unit capacities).
The PIR parameter of a file is its number of pairwise-disjoint recovery
sets, i.e. the matching number of that file's color class in the graph.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, NamedTuple, Optional, Sequence

from .codes import RecoverySetCatalog, enumerate_recovery_sets, simplex_code
from .errors import GuardError
from .graphrep import ServiceGraph, build_graph
from .matching import Matching, fractional_matching_oracle, max_matching
from .region import integral_membership

__all__ = [
    "BatchVerdict",
    "BatchReport",
    "PirReport",
    "demand_vectors",
    "is_batch_t",
    "batch_t_max",
    "pir_t",
    "algorithm1",
    "BATCH_ENUMERATION_CAP",
    "BATCH_CRITERION",
]

BATCH_ENUMERATION_CAP = 10**6

BATCH_CRITERION = (
    "every integer demand vector summing to t is servable by "
    "pairwise-disjoint recovery sets under unit capacities"
)


class BatchVerdict(NamedTuple):
    t: int
    first_failure: Optional[tuple[int, ...]]

    @property
    def all_served(self) -> bool:
        return self.first_failure is None


class BatchReport(NamedTuple):
    t_max: int
    verdicts: tuple[BatchVerdict, ...]


class PirReport(NamedTuple):
    per_file: tuple[int, ...]

    @property
    def t_pir(self) -> int:
        return min(self.per_file)


def demand_vectors(k: int, t: int) -> Iterator[tuple[int, ...]]:
    """All length-k nonnegative integer vectors summing to t, in descending
    lexicographic order: (t, 0, ..., 0) first."""
    if k == 1:
        yield (t,)
        return
    for first in range(t, -1, -1):
        for rest in demand_vectors(k - 1, t - first):
            yield (first,) + rest


def is_batch_t(
    catalog: RecoverySetCatalog, t: int
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check every demand multiset of size t; on failure, return the first
    failing vector in descending lexicographic order."""
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
    k = catalog.k
    count = comb(t + k - 1, k - 1)
    if count > BATCH_ENUMERATION_CAP:
        raise GuardError(
            f"demand enumeration too large: C({t + k - 1}, {k - 1}) = {count} vectors "
            f"exceeds the {BATCH_ENUMERATION_CAP} cap"
        )
    for lam in demand_vectors(k, t):
        if integral_membership(catalog, lam) is None:
            return False, lam
    return True, None


def batch_t_max(catalog: RecoverySetCatalog) -> BatchReport:
    """Largest verified t, walking t = 1, 2, ... until the first failure.

    The fractional matching number caps any servable total, so the walk
    always terminates by floor(m_f) + 1; the failing t stays in the report.
    """
    mf = fractional_matching_oracle(build_graph(catalog))
    cutoff = mf.numerator // mf.denominator
    verdicts: list[BatchVerdict] = []
    t_max = 0
    for t in range(1, cutoff + 2):
        ok, failing = is_batch_t(catalog, t)
        verdicts.append(BatchVerdict(t, failing))
        if not ok:
            break
        t_max = t
    return BatchReport(t_max, tuple(verdicts))


def pir_t(catalog: RecoverySetCatalog) -> PirReport:
    """Disjoint recovery sets per file: matching numbers of the color classes."""
    graph = build_graph(catalog)
    per_file = tuple(
        max_matching(graph.subgraph_of_file(f)).size for f in range(1, catalog.k + 1)
    )
    return PirReport(per_file)


def _simplex3_graph() -> ServiceGraph:
    return build_graph(enumerate_recovery_sets(simplex_code(3)))


def algorithm1(lam: Sequence[int], graph: Optional[ServiceGraph] = None) -> Matching:
    """Integral allocation for the dimension-3 binary simplex code at full
    load: lam must be three nonnegative integers summing to 4.

    Starts from the four edges of the most-demanded color and walks the
    others in: an odd demand first trades the color-a edge at the file's
    systematic column for that file's dummy edge, then every remaining pair
    of demand units trades two color-a edges for the two color-i edges that
    close an alternating 4-cycle with them.
    """
    if len(lam) != 3 or any(
        isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in lam
    ):
        raise ValueError(f"demand must be three nonnegative integers, got {lam!r}")
    if sum(lam) != 4:
        raise ValueError(f"demands must sum to 4, got {sum(lam)}")
    if graph is None:
        graph = _simplex3_graph()
    else:
        if graph.catalog.matrix != simplex_code(3) or not graph.has_unit_capacities():
            raise ValueError("graph is not the unit-capacity dimension-3 simplex graph")

    by_color: dict[int, list[int]] = {1: [], 2: [], 3: []}
    by_pair: dict[tuple[int, frozenset[int]], int] = {}
    systematic: dict[int, int] = {}
    for idx, e in enumerate(graph.edges):
        by_color[e.file].append(idx)
        by_pair[(e.file, frozenset(e.endpoints()))] = idx
        if graph.recovery_set_of(idx).size == 1:
            systematic[e.file] = idx

    order = sorted((1, 2, 3), key=lambda f: (-lam[f - 1], f))
    a = order[0]
    chosen: set[int] = set(by_color[a])

    def color_a_edges() -> list[int]:
        return sorted(i for i in chosen if graph.edges[i].file == a)

    for f in order[1:]:
        demand = lam[f - 1]
        loops, odd = divmod(demand, 2)
        if odd:
            col = 1 << (f - 1)  # label of the column storing file f alone
            at_col = next(
                i for i in color_a_edges() if col in graph.edges[i].endpoints()
            )
            chosen.remove(at_col)
            chosen.add(systematic[f])
        for _ in range(loops):
            swap = _find_alternating_square(graph, color_a_edges(), f, by_pair)
            if swap is None:
                raise RuntimeError(f"no alternating 4-cycle left for file {f}")
            drop, add = swap
            chosen.difference_update(drop)
            chosen.update(add)

    result = Matching(tuple(sorted(chosen)))
    result.validate(graph)
    counts = result.color_counts(graph)
    if any(counts.get(f, 0) != lam[f - 1] for f in (1, 2, 3)):
        raise RuntimeError(f"algorithm 1 served colour counts {counts}, not {tuple(lam)}")
    return result


def _find_alternating_square(
    graph: ServiceGraph,
    a_edges: list[int],
    f: int,
    by_pair: dict[tuple[int, frozenset[int]], int],
) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """First pair of color-a edges (in index order) joined into a 4-cycle by
    two color-f edges; returns (edges to drop, edges to add)."""
    for i, e1 in enumerate(a_edges):
        p, q = graph.edges[e1].endpoints()
        for e2 in a_edges[i + 1 :]:
            r, s = graph.edges[e2].endpoints()
            for w1, w2 in (((p, r), (q, s)), ((p, s), (q, r))):
                f1 = by_pair.get((f, frozenset(w1)))
                f2 = by_pair.get((f, frozenset(w2)))
                if f1 is not None and f2 is not None:
                    return (e1, e2), (f1, f2)
    return None
