"""Service rate region queries.

A demand vector (lambda_1..lambda_k) is in the region when the requests for
each file can be split across that file's recovery sets without exceeding
any server's capacity. Everything here is exact: membership and capacity are
rational LPs over `matching.allocation_program` on the service graph (which
also validates mu, through `build_graph`), the integral region is a
backtracking search over 0/1 assignments, and the projection onto demand
space is an exact convex hull built from the region's support function:
h(c) = max c.lam is one LP on that program, weighing each edge by its
file's entry of c. The hull is kept in integers over the points those LPs
certify, and grows until the LP confirms each of its facets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .codes import RecoverySetCatalog
from .errors import GuardError
from .graphrep import ServiceGraph, build_graph
from .lp import feasible, solve_max
from .matching import allocation_program

__all__ = [
    "Allocation",
    "DemandVector",
    "HalfSpace",
    "RegionHRep",
    "as_demand",
    "membership",
    "capacity",
    "integral_membership",
    "project_region",
    "PROJECTION_K_CAP",
]

DemandVector = tuple[Fraction, ...]

PROJECTION_K_CAP = 3


def as_demand(values: Sequence[int | str | Fraction], k: int) -> DemandVector:
    """Coerce to a length-k tuple of nonnegative Fractions. Floats and bools
    are refused: a float is not the rational it prints as."""
    if len(values) != k:
        raise ValueError(f"demand vector has length {len(values)}, expected {k}")
    for i, v in enumerate(values, start=1):
        if isinstance(v, (bool, float)):
            raise ValueError(f"demand entry {i} is {v!r}, not an exact rational")
    out = tuple(Fraction(v) for v in values)
    if any(x < 0 for x in out):
        raise ValueError("demands must be nonnegative")
    return out


class Allocation(NamedTuple):
    """Per-file request splits, aligned with the catalog's set order."""

    per_file: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_flat(
        cls, catalog: RecoverySetCatalog, flat: Sequence[Fraction]
    ) -> "Allocation":
        if len(flat) != catalog.total_sets:
            raise ValueError("one value per recovery set required")
        out: list[tuple[Fraction, ...]] = []
        pos = 0
        for count in catalog.counts:
            out.append(tuple(Fraction(v) for v in flat[pos : pos + count]))
            pos += count
        return cls(tuple(out))

    def demand(self) -> DemandVector:
        return tuple(sum(row, Fraction(0)) for row in self.per_file)


def membership(
    catalog: RecoverySetCatalog,
    lam: Sequence,
    mu: Optional[Sequence] = None,
) -> Optional[Allocation]:
    """A witness allocation serving lam exactly, or None when infeasible."""
    graph = build_graph(catalog, mu)
    demand = as_demand(lam, catalog.k)
    point = feasible(allocation_program(graph, demand))
    if point is None:
        return None
    return Allocation.from_flat(catalog, point)


def capacity(
    catalog: RecoverySetCatalog,
    mu: Optional[Sequence] = None,
    graph: Optional[ServiceGraph] = None,
) -> tuple[Fraction, DemandVector, Allocation]:
    """Service capacity: the maximum total demand rate, plus a maximizer.
    A caller already holding build_graph(catalog, mu) passes it as graph
    instead of mu."""
    if graph is None:
        graph = build_graph(catalog, mu)
    elif mu is not None:
        raise ValueError("pass mu or a graph built with it, not both")
    out = solve_max(allocation_program(graph))
    if out.status != "optimal":  # 0 is feasible and totals are capped
        raise RuntimeError(f"capacity LP is {out.status}")
    allocation = Allocation.from_flat(catalog, out.assignment)
    return out.value, allocation.demand(), allocation


def integral_membership(
    catalog: RecoverySetCatalog,
    lam: Sequence[int],
) -> Optional[Allocation]:
    """Serve integer demands with whole recovery sets under unit capacities:
    lam_i pairwise-disjoint sets per file, disjoint across files too. Returns
    the first witness in catalog order, or None."""
    demands: list[int] = []
    for x in lam:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"integral demand {x!r} is not an integer")
        frac = Fraction(x)
        if frac.denominator != 1 or frac < 0:
            raise ValueError(f"integral demand {x!r} is not a nonnegative integer")
        demands.append(int(frac))
    if len(demands) != catalog.k:
        raise ValueError(f"demand vector has length {len(demands)}, expected {catalog.k}")
    per_file = catalog.per_file
    if any(d > len(sets) for d, sets in zip(demands, per_file)):
        return None
    used: set[int] = set()
    chosen: list[list[int]] = [[] for _ in range(catalog.k)]

    def place(fi: int) -> bool:
        if fi == catalog.k:
            return True
        sets = per_file[fi]

        def pick(start: int, need: int) -> bool:
            if need == 0:
                return place(fi + 1)
            if len(sets) - start < need:
                return False
            for j in range(start, len(sets)):
                servers = sets[j].servers
                if any(s in used for s in servers):
                    continue
                used.update(servers)
                chosen[fi].append(j)
                if pick(j + 1, need - 1):
                    return True
                chosen[fi].pop()
                used.difference_update(servers)
            return False

        return pick(0, demands[fi])

    if not place(0):
        return None
    one, zero = Fraction(1), Fraction(0)
    rows = tuple(
        tuple(one if j in set(sel) else zero for j in range(len(sets)))
        for sets, sel in zip(per_file, chosen)
    )
    return Allocation(rows)


class HalfSpace(NamedTuple):
    """coeffs . lam <= rhs"""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction


class RegionHRep(NamedTuple):
    """The region as half-spaces over demand space (nonnegativity implied),
    with its extreme points."""

    k: int
    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[DemandVector, ...]


_Row = tuple[tuple[Fraction, ...], Fraction]
_Point = tuple[int, ...]


def _normalize_row(coeffs: Sequence[Fraction], rhs: Fraction) -> _Row:
    """Canonical form: coprime integers, the same for every positive multiple."""
    denom = lcm(*(c.denominator for c in coeffs), rhs.denominator)
    ints = [int(c * denom) for c in coeffs]
    r = int(rhs * denom)
    g = gcd(*(abs(v) for v in ints), abs(r))
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(Fraction(v) for v in ints), Fraction(r)


def _unit(i: int, dim: int) -> _Point:
    return tuple(int(i == j) for j in range(dim))


def _dot(c: Sequence, x: Sequence):
    return sum(a * b for a, b in zip(c, x))


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by cofactor expansion (at most 3 x 3 here)."""
    if not rows:
        return 1
    first, rest = rows[0], rows[1:]
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rest])
        for j, a in enumerate(first)
        if a
    )


def _rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of integer vectors, by fraction-free elimination."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    while rows:
        pivot = rows.pop()
        j = next(i for i, x in enumerate(pivot) if x)
        rank += 1
        rows = [[pivot[j] * x - r[j] * y for x, y in zip(r, pivot)] for r in rows]
        rows = [r for r in rows if any(r)]
    return rank


def _face_rank(c: _Point, rhs: int, points: Sequence[_Point]) -> int:
    """Dimension of the face c.x = rhs of the down-closed hull of points: the
    points on the plane, plus each e_j with c_j = 0 that one of them can move
    back along without leaving the orthant."""
    on = [p for p in points if _dot(c, p) == rhs]
    base = on[0]
    vectors = [tuple(x - y for x, y in zip(p, base)) for p in on[1:]]
    for j, cj in enumerate(c):
        if cj == 0 and any(p[j] for p in on):
            vectors.append(_unit(j, len(c)))
    return _rank(vectors)


def _hull_facets(points: Sequence[_Point], d: int) -> dict[_Point, int]:
    """Facets of the down-closed hull conv(points) + cone(-e_j), within the
    orthant, other than the coordinate planes: primitive normal c >= 0 ->
    rhs > 0.

    Such a facet is spanned by some a of the points and the d - a axis
    directions e_j outside a set `free` of a coordinates (c_j = 0 there), so
    every choice of both gives one normal, in the free coordinates only.
    """
    facets: dict[_Point, int] = {}
    seen: set[_Point] = set()
    for a in range(1, d + 1):
        for free in combinations(range(d), a):
            for chosen in combinations(points, a):
                base = chosen[0]
                sub = [tuple(p[i] - base[i] for i in free) for p in chosen[1:]]
                normal = [(-1) ** i * _det([r[:i] + r[i + 1 :] for r in sub]) for i in range(a)]
                if not any(normal):
                    continue  # the chosen points are affinely dependent
                if min(normal) < 0 < max(normal):
                    continue
                g = gcd(*normal) if max(normal) > 0 else -gcd(*normal)
                c = [0] * d
                for i, x in zip(free, normal):
                    c[i] = x // g
                key = tuple(c)
                if key in seen:
                    continue
                seen.add(key)
                rhs = max(_dot(key, p) for p in points)
                if rhs > 0 and _face_rank(key, rhs, points) == d - 1:
                    facets[key] = rhs
    return facets


def _hull_vertices(points: Sequence[_Point], facets: dict[_Point, int], d: int) -> set[_Point]:
    """Vertices of the down-closed hull, given all its facets. A vertex x
    with x_j > 0 cannot move back along e_j, so it is a vertex of the
    projection of conv(points) onto its support: one of the points with the
    other coordinates zeroed. Those at which the tight facets and coordinate
    planes have rank d are the vertices."""
    candidates = {(0,) * d}
    for p in points:
        for mask in range(1, 1 << d):
            candidates.add(tuple(x if mask >> j & 1 else 0 for j, x in enumerate(p)))
    out: set[_Point] = set()
    for x in candidates:
        tight = [c for c, rhs in facets.items() if _dot(c, x) == rhs]
        tight += [_unit(j, d) for j in range(d) if x[j] == 0]
        if _rank(tight) == d:
            out.add(x)
    return out


def project_region(
    catalog: RecoverySetCatalog,
    mu: Optional[Sequence] = None,
    k_limit: int = PROJECTION_K_CAP,
) -> RegionHRep:
    """The region as half-spaces over demands, with its extreme points.

    An exact hull of points the region's support LP certifies: each facet
    c.lam <= rhs of the down-closed hull of the points found so far is
    either confirmed by h(c) = rhs or cut off by the LP's maximizer, which
    joins the points. A file with h(e_i) = 0 is dead and gets lam_i <= 0.
    Exponential in k in principle, so the file count is guarded.
    """
    k = catalog.k
    if k > k_limit:
        raise GuardError(f"projection limited to k <= {k_limit}, got k = {k}")
    graph = build_graph(catalog, mu)

    def support(weights: Sequence[int]) -> tuple[Fraction, DemandVector]:
        """h(weights) = max weights.lam over the region, with the color split
        of a maximizer."""
        out = solve_max(allocation_program(graph, weights=weights))
        if out.status != "optimal":
            raise RuntimeError(f"support LP in direction {tuple(weights)} is {out.status}")
        return out.value, Allocation.from_flat(catalog, out.assignment).demand()

    axes = [support(_unit(i, k)) for i in range(k)]
    live = [i for i, (h, _) in enumerate(axes) if h > 0]
    d = len(live)

    def lift(c: _Point) -> list[int]:
        out = [0] * k
        for i, x in zip(live, c):
            out[i] = x
        return out

    found: list[tuple[Fraction, ...]] = []  # certified points, live coordinates
    for _, split in axes:
        point = tuple(split[i] for i in live)
        if any(point) and point not in found:
            found.append(point)
    # a direction whose LP ran is a facet whenever it is a candidate again,
    # since its maximizer is among the points
    solved = {_unit(i, d) for i in range(d)}
    while True:
        scale = lcm(*(x.denominator for p in found for x in p))
        points = [tuple(int(x * scale) for x in p) for p in found]
        facets = _hull_facets(points, d)
        pending = [c for c in facets if c not in solved]
        if not pending:
            break
        fresh: list[tuple[Fraction, ...]] = []
        for c in pending:
            rhs = Fraction(facets[c], scale)
            if any(_dot(c, p) > rhs for p in fresh):
                continue  # already cut off in this round
            solved.add(c)
            value, split = support(lift(c))
            if value < rhs:
                raise RuntimeError(f"support LP in direction {c} is {value}, below the certified {rhs}")
            if value > rhs:
                fresh.append(tuple(split[i] for i in live))
        found += fresh

    rows = [_normalize_row(lift(c), Fraction(r, scale)) for c, r in facets.items()]
    rows += [_normalize_row(_unit(i, k), Fraction(0)) for i in range(k) if i not in live]
    rows.sort()
    vertices = [tuple(Fraction(v, scale) for v in lift(x)) for x in _hull_vertices(points, facets, d)]
    return RegionHRep(
        k,
        tuple(HalfSpace(c, r) for c, r in rows),
        tuple(sorted(vertices)),
    )
