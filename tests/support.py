"""Brute-force oracles and random-instance generators shared across tests.

Everything here recomputes results by definition-level exhaustion, staying
independent of the library code paths it cross-checks.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from servicerate.codes import GeneratorMatrix, RecoverySet, RecoverySetCatalog
from servicerate.graphrep import Edge, ServiceGraph, Vertex
from servicerate.lp import LE, LinearProgram
from servicerate.region import RegionHRep

CORPUS_SEED = 20260814


def corpus(count: int = 200, seed: int = CORPUS_SEED) -> list[GeneratorMatrix]:
    rng = random.Random(seed)
    return [random_code(rng) for _ in range(count)]


def random_code(
    rng: random.Random,
    qs: tuple[int, ...] = (2, 3),
    max_k: int = 3,
    max_n: int = 7,
) -> GeneratorMatrix:
    q = rng.choice(qs)
    k = rng.randint(1, max_k)
    n = rng.randint(1, max_n)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
    return GeneratorMatrix(q, rows)


def unit_vector(k: int, i: int) -> tuple[int, ...]:
    """e_i in GF(q)^k (1-based)."""
    return tuple(int(r == i - 1) for r in range(k))


def evaluate(matrix: GeneratorMatrix, rs: RecoverySet) -> tuple[int, ...]:
    """The recovery set's combination of columns, reduced mod q."""
    total = [0] * matrix.k
    for server, coeff in zip(rs.servers, rs.coefficients):
        total = [(t + coeff * c) % matrix.q for t, c in zip(total, matrix.column(server))]
    return tuple(total)


def brute_force_recovery_sets(matrix: GeneratorMatrix) -> set[tuple[int, tuple[int, ...]]]:
    """(file, servers) pairs found by trying every subset of size <= 2 with
    every nonzero coefficient combination."""
    q = matrix.q
    nz = range(1, q)
    found: set[tuple[int, tuple[int, ...]]] = set()
    nonzero_cols = [j for j in range(1, matrix.n + 1) if any(matrix.column(j))]
    for i in range(1, matrix.k + 1):
        target = unit_vector(matrix.k, i)
        for j in nonzero_cols:
            col = matrix.column(j)
            for c in nz:
                if tuple(c * x % q for x in col) == target:
                    found.add((i, (j,)))
        for a, b in combinations(nonzero_cols, 2):
            ca, cb = matrix.column(a), matrix.column(b)
            for alpha, beta in product(nz, nz):
                combo = tuple((alpha * x + beta * y) % q for x, y in zip(ca, cb))
                if combo == target:
                    found.add((i, (a, b)))
    return found


def graph_from_pairs(
    pairs: list[tuple[int, int]], extra_isolated: int = 0
) -> ServiceGraph:
    """An ad-hoc unit-capacity graph (vertices 1..max) for matching tests.

    The attached catalog is an empty placeholder; matching and cover code
    never consults it.
    """
    from servicerate.codes import enumerate_recovery_sets

    placeholder = enumerate_recovery_sets(GeneratorMatrix(2, [[0]]))
    top = max((max(p) for p in pairs), default=0) + extra_isolated
    vertices = [Vertex(i, str(i), Fraction(1), False) for i in range(1, top + 1)]
    edges = [Edge(min(u, v), max(u, v), 1, i) for i, (u, v) in enumerate(pairs)]
    return ServiceGraph(placeholder, vertices, edges, top)


def brute_force_max_matching(graph: ServiceGraph) -> int:
    pairs = sorted({e.endpoints() for e in graph.edges})
    best = 0

    def grow(i: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i >= len(pairs) or count + len(pairs) - i <= best:
            return
        u, v = pairs[i]
        if u not in used and v not in used:
            grow(i + 1, used | {u, v}, count + 1)
        grow(i + 1, used, count)

    grow(0, frozenset(), 0)
    return best


def brute_force_min_vertex_cover(graph: ServiceGraph) -> int:
    pairs = sorted({e.endpoints() for e in graph.edges})
    if not pairs:
        return 0
    vids = sorted({v for p in pairs for v in p})
    for size in range(len(vids) + 1):
        for combo in combinations(vids, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in pairs):
                return size
    raise AssertionError("unreachable: all endpoints always cover")


def _integer_row(coeffs: list[Fraction], rhs: Fraction) -> list[int]:
    """coeffs | rhs scaled to integers by the lcm of their denominators."""
    scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs] + [int(rhs * scale)]


def _bareiss_solve(system: list[list[int]]) -> tuple[int, list[int]] | None:
    """Fraction-free Gauss-Jordan (Bareiss) on an n x (n+1) integer system.
    Returns (d, X) with d > 0 and solution X / d, or None when singular;
    every division is exact, and each diagonal entry ends equal to d."""
    m = [list(r) for r in system]
    n = len(m)
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        row_k = m[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], row_k)]
        prev = p
    scaled = [r[n] for r in m]
    return (prev, scaled) if prev > 0 else (-prev, [-v for v in scaled])


def _row_holds(row: list[int], rel: str, x: list[int], d: int) -> bool:
    """row . (x / d) rel rhs, in integers (d > 0)."""
    lhs = sum(a * v for a, v in zip(row, x))
    return lhs <= row[-1] * d if rel == LE else lhs == row[-1] * d


def brute_force_lp_max(prog: LinearProgram):
    """('optimal', value) or ('infeasible', None) by enumerating every basic
    point: each n-subset of the planes (the rows, and x_j = 0 for each j) is
    solved in integers, and kept when x >= 0 and every row holds. Sound for
    bounded programs, since x >= 0 gives a nonempty feasible set a vertex."""
    n = prog.num_vars
    rows = [(_integer_row(coeffs, rhs), rel) for coeffs, rel, rhs in prog.rows]
    planes = [row for row, _ in rows]
    planes += [[int(i == j) for i in range(n)] + [0] for j in range(n)]
    scale = math.lcm(*(c.denominator for c in prog.objective))
    objective = [int(c * scale) for c in prog.objective]
    best = None
    for combo in combinations(planes, n):
        solved = _bareiss_solve(list(combo))
        if solved is None:
            continue
        d, x = solved
        if min(x, default=0) < 0:
            continue
        if not all(_row_holds(row, rel, x, d) for row, rel in rows):
            continue
        value = Fraction(sum(c * v for c, v in zip(objective, x)), scale * d)
        if best is None or value > best:
            best = value
    return ("infeasible", None) if best is None else ("optimal", best)


def random_fractional_matching(graph: ServiceGraph, rng: random.Random) -> list[Fraction]:
    """Random edge weights scaled into feasibility one vertex at a time;
    later scalings only shrink earlier vertex loads."""
    values = [Fraction(rng.randint(0, 4), 4) for _ in range(graph.edge_count)]
    for vid in graph.vertex_ids():
        incident = graph.incident_edges(vid)
        load = sum((values[i] for i in incident), Fraction(0))
        if load > 1:
            scale = Fraction(1) / load
            for i in incident:
                values[i] *= scale
    return values


def check_fractional_matching(graph: ServiceGraph, values) -> Fraction:
    """Check one value in [0, 1] per edge with every vertex load at most 1,
    raising ValueError otherwise; return the total."""
    if len(values) != graph.edge_count:
        raise ValueError("one value per edge required")
    if any(x < 0 or x > 1 for x in values):
        raise ValueError("edge values must lie in [0, 1]")
    for vid in graph.vertex_ids():
        load = sum((values[i] for i in graph.incident_edges(vid)), Fraction(0))
        if load > 1:
            raise ValueError(f"vertex {vid} is overloaded: {load}")
    return sum(values, Fraction(0))


def region_contains(hrep: RegionHRep, lam) -> bool:
    """Whether lam >= 0 satisfies every half-space of the projected region."""
    if len(lam) != hrep.k:
        raise ValueError(f"demand vector has length {len(lam)}, expected {hrep.k}")
    point = tuple(Fraction(v) for v in lam)
    if any(x < 0 for x in point):
        return False
    return all(
        sum((c * x for c, x in zip(h.coeffs, point)), Fraction(0)) <= h.rhs
        for h in hrep.halfspaces
    )


def _server_members(catalog: RecoverySetCatalog) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(catalog.n)]
    for idx, rs in enumerate(rs for sets in catalog.per_file for rs in sets):
        for s in rs.servers:
            rows[s - 1].append(idx)
    return rows


def random_member_allocation(
    catalog: RecoverySetCatalog,
    rng: random.Random,
    mu: list[Fraction] | None = None,
) -> list[Fraction]:
    """A random feasible allocation (flat, catalog order); its demand vector
    is a member point by construction."""
    caps = mu if mu is not None else [Fraction(1)] * catalog.n
    values = [Fraction(rng.randint(0, 4), 4) for _ in range(catalog.total_sets)]
    for members, cap in zip(_server_members(catalog), caps):
        load = sum((values[i] for i in members), Fraction(0))
        if load > cap:
            scale = cap / load
            for i in members:
                values[i] *= scale
    return values


def brute_force_integral_member(catalog: RecoverySetCatalog, lam: tuple[int, ...]) -> bool:
    """Try every combination of lam_i whole recovery sets per file."""
    per_file_choices = []
    for demand, sets in zip(lam, catalog.per_file):
        if demand > len(sets):
            return False
        per_file_choices.append(list(combinations(range(len(sets)), demand)))
    for selection in product(*per_file_choices):
        used: set[int] = set()
        ok = True
        for sets, picks in zip(catalog.per_file, selection):
            for j in picks:
                servers = sets[j].servers
                if used & set(servers):
                    ok = False
                    break
                used.update(servers)
            if not ok:
                break
        if ok:
            return True
    return False


def brute_force_max_disjoint_sets(sets: tuple) -> int:
    """Largest family of pairwise-disjoint recovery sets, by recursion."""
    servers = [set(rs.servers) for rs in sets]

    def grow(i: int, used: set[int]) -> int:
        if i >= len(servers):
            return 0
        best = grow(i + 1, used)
        if not (servers[i] & used):
            best = max(best, 1 + grow(i + 1, used | servers[i]))
        return best

    return grow(0, set())
