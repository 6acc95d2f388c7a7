"""Brute-force oracles and random-instance generators shared across tests.

Everything here recomputes results by definition-level exhaustion, staying
independent of the library code paths it cross-checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from servicerate.codes import GeneratorMatrix, RecoverySet, RecoverySetCatalog
from servicerate.graphrep import Edge, ServiceGraph, Vertex
from servicerate.lp import EQ, GE, LE, LinearProgram

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


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    k = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        scale = Fraction(1) / m[col][col]
        m[col] = [v * scale for v in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][-1] for r in range(k)]


def _point_feasible(prog: LinearProgram, x: list[Fraction]) -> bool:
    for coeffs, rel, rhs in prog.rows:
        lhs = sum((c * v for c, v in zip(coeffs, x)), Fraction(0))
        if rel == LE and lhs > rhs:
            return False
        if rel == GE and lhs < rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    for j in range(prog.num_vars):
        if prog.lower[j] is not None and x[j] < prog.lower[j]:
            return False
        if prog.upper[j] is not None and x[j] > prog.upper[j]:
            return False
    return True


def brute_force_lp_max(prog: LinearProgram):
    """('optimal', value) or ('infeasible', None) by enumerating every basic
    point. Sound because all test programs keep lower bounds on all
    variables, so a nonempty feasible set has a vertex."""
    n = prog.num_vars
    planes: list[tuple[list[Fraction], Fraction]] = []
    for coeffs, _, rhs in prog.rows:
        planes.append((list(coeffs), rhs))
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        if prog.lower[j] is not None:
            planes.append((unit, prog.lower[j]))
        if prog.upper[j] is not None:
            planes.append((list(unit), prog.upper[j]))
    best = None
    for combo in combinations(range(len(planes)), n):
        point = _solve_square([planes[i][0] for i in combo], [planes[i][1] for i in combo])
        if point is None or not _point_feasible(prog, point):
            continue
        value = sum((c * v for c, v in zip(prog.objective, point)), Fraction(0))
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


def _server_members(catalog: RecoverySetCatalog) -> list[list[int]]:
    rows: list[list[int]] = [[] for _ in range(catalog.n)]
    for idx, rs in enumerate(catalog.flat()):
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
