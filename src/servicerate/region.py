"""Service rate region queries.

A demand vector (lambda_1..lambda_k) is in the region when the requests for
each file can be split across that file's recovery sets without exceeding
any server's capacity. Everything here is exact: membership and capacity are
rational LPs over `matching.allocation_program` on the service graph (which
also validates mu, through `build_graph`), the integral region is a
backtracking search over 0/1 assignments, and the projection onto demand
space is Fourier-Motzkin elimination of that program's edge variables, with
LP-based redundancy pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .codes import RecoverySetCatalog
from .errors import GuardError
from .graphrep import build_graph
from .lp import LE, LinearProgram, feasible, solve_max
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

# prune intermediate FM systems once they grow past this many rows
_PRUNE_THRESHOLD = 24


def as_demand(values: Sequence[int | float | str | Fraction], k: int) -> DemandVector:
    """Coerce to a length-k tuple of nonnegative Fractions."""
    if len(values) != k:
        raise ValueError(f"demand vector has length {len(values)}, expected {k}")
    out = tuple(Fraction(v) for v in values)
    if any(x < 0 for x in out):
        raise ValueError("demands must be nonnegative")
    return out


@dataclass(frozen=True, slots=True)
class Allocation:
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

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(v for row in self.per_file for v in row)

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
) -> tuple[Fraction, DemandVector, Allocation]:
    """Service capacity: the maximum total demand rate, plus a maximizer."""
    out = solve_max(allocation_program(build_graph(catalog, mu)))
    assert out.status == "optimal"  # 0 is feasible and totals are capped
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


@dataclass(frozen=True, slots=True)
class HalfSpace:
    """coeffs . lam <= rhs"""

    coeffs: tuple[Fraction, ...]
    rhs: Fraction

    def holds(self, point: Sequence[Fraction]) -> bool:
        return sum((c * x for c, x in zip(self.coeffs, point)), Fraction(0)) <= self.rhs


@dataclass(frozen=True, slots=True)
class RegionHRep:
    """The region as half-spaces over demand space (nonnegativity implied),
    with its extreme points."""

    k: int
    halfspaces: tuple[HalfSpace, ...]
    vertices: tuple[DemandVector, ...]

    def contains(self, lam: Sequence) -> bool:
        if len(lam) != self.k:
            raise ValueError(f"demand vector has length {len(lam)}, expected {self.k}")
        point = tuple(Fraction(v) for v in lam)
        if any(x < 0 for x in point):
            return False
        return all(h.holds(point) for h in self.halfspaces)


_Row = tuple[tuple[Fraction, ...], Fraction]


def _normalize_row(coeffs: Sequence[Fraction], rhs: Fraction) -> Optional[_Row]:
    """Canonical integer form, or None when the row is trivially true."""
    if not any(coeffs):
        assert rhs >= 0  # a negative constant would mean an empty region
        return None
    denom = lcm(*(c.denominator for c in coeffs), rhs.denominator)
    ints = [int(c * denom) for c in coeffs]
    r = int(rhs * denom)
    g = gcd(*(abs(v) for v in ints), abs(r))
    if g > 1:
        ints = [v // g for v in ints]
        r //= g
    return tuple(Fraction(v) for v in ints), Fraction(r)


def _fm_eliminate(rows: list[_Row], var: int) -> list[_Row]:
    """Eliminate one variable, with var >= 0 treated as an implicit row.

    Every variable of the system is nonnegative, and the pruning step also
    assumes that, so the sign bound must live here rather than as explicit
    rows (those would be pruned as redundant and lost to later steps).
    """
    pos = [r for r in rows if r[0][var] > 0]
    neg = [r for r in rows if r[0][var] < 0]
    keep = [r for r in rows if r[0][var] == 0]
    out: dict[_Row, None] = dict.fromkeys(keep)
    zero = Fraction(0)
    for pc, pr in pos:
        # pair with the implicit -var <= 0: the term just drops
        coeffs = list(pc)
        coeffs[var] = zero
        row = _normalize_row(coeffs, pr)
        if row is not None:
            out[row] = None
        for nc, nr in neg:
            a, b = pc[var], -nc[var]
            coeffs = [b * x + a * y for x, y in zip(pc, nc)]
            row = _normalize_row(coeffs, b * pr + a * nr)
            if row is not None:
                out[row] = None
    return list(out)


def _prune_redundant(rows: list[_Row], nvars: int) -> list[_Row]:
    """Drop rows implied by the others (plus nonnegativity), one at a time."""
    kept = list(rows)
    i = 0
    while i < len(kept):
        coeffs, rhs = kept[i]
        others = kept[:i] + kept[i + 1 :]
        prog = LinearProgram(nvars, list(coeffs))
        for oc, orhs in others:
            prog.add_constraint(list(oc), LE, orhs)
        out = solve_max(prog)
        if out.status == "optimal" and out.value <= rhs:
            kept.pop(i)
        else:
            i += 1
    return kept


def _solve_square(rows: list[Sequence[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    k = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][-1] for r in range(k)]


def _extreme_points(halfspaces: list[_Row], k: int) -> list[DemandVector]:
    from itertools import combinations

    zero = Fraction(0)
    bounds: list[_Row] = []
    for i in range(k):
        coeffs = tuple(Fraction(-1) if j == i else zero for j in range(k))
        bounds.append((coeffs, zero))
    all_rows = halfspaces + bounds
    points: set[DemandVector] = set()
    for combo in combinations(all_rows, k):
        sol = _solve_square([c for c, _ in combo], [r for _, r in combo])
        if sol is None:
            continue
        point = tuple(sol)
        if any(x < 0 for x in point):
            continue
        if all(
            sum((c * x for c, x in zip(coeffs, point)), zero) <= rhs
            for coeffs, rhs in all_rows
        ):
            points.add(point)
    return sorted(points)


def project_region(
    catalog: RecoverySetCatalog,
    mu: Optional[Sequence] = None,
    k_limit: int = PROJECTION_K_CAP,
) -> RegionHRep:
    """Eliminate the allocation variables, leaving half-spaces over demands.

    Exact but exponential in principle, so the file count is guarded.
    """
    k = catalog.k
    if k > k_limit:
        raise GuardError(f"projection limited to k <= {k_limit}, got k = {k}")
    graph = build_graph(catalog, mu)
    nsets = catalog.total_sets
    nvars = k + nsets
    zero = Fraction(0)
    rows: list[_Row] = []

    def add(coeffs: list[Fraction], rhs: Fraction) -> None:
        row = _normalize_row(coeffs, rhs)
        if row is not None:
            rows.append(row)

    pos = 0
    for fi, count in enumerate(catalog.counts):
        coeffs = [zero] * nvars
        coeffs[fi] = Fraction(1)
        for idx in range(pos, pos + count):
            coeffs[k + idx] = Fraction(-1)
        add(coeffs, zero)
        add([-c for c in coeffs], zero)
        pos += count
    for coeffs, _, cap in allocation_program(graph).rows:
        add([zero] * k + coeffs, cap)
    # allocation nonnegativity is implicit in the elimination step

    for var in range(k, nvars):
        rows = _fm_eliminate(rows, var)
        if len(rows) > _PRUNE_THRESHOLD:
            rows = _prune_redundant(rows, nvars)
    rows = _prune_redundant(rows, nvars)

    halfspaces: list[_Row] = []
    for coeffs, rhs in rows:
        assert not any(coeffs[k:])  # only demand coordinates survive
        halfspaces.append((coeffs[:k], rhs))
    halfspaces.sort()
    vertices = _extreme_points(halfspaces, k)
    return RegionHRep(
        k,
        tuple(HalfSpace(c, r) for c, r in halfspaces),
        tuple(vertices),
    )
