"""Seeded inputs for the four workloads.

A workload is a list of code files and one cycle of CLI queries over them.
The runner repeats the cycle, so every run measures whole cycles and the
mix of queries is the same from run to run. The seed draws code entries,
demand vectors and the order of the queries in the cycle; each workload
says how it keeps the quantiles from depending on the draw.

Demands are built so that the right answer is known without the solver:
a boundary demand is the colour split of a maximum fractional matching
(half a matching of the double cover), an interior one is that scaled down,
and a just-outside one adds to a coordinate so the total exceeds the
fractional matching number m_f.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from oracle import CodeFacts, double_cover_matching


@dataclass(frozen=True)
class Query:
    command: str
    code: str
    mu: Optional[Fraction] = None  # uniform capacity; None means unit
    lam: Optional[tuple[Fraction, ...]] = None
    integral: bool = False
    t: Optional[int] = None
    expect_member: Optional[bool] = None
    simplex_k: Optional[int] = None  # batch verdicts follow t <= 2^(k-1)

    def argv(self, path: str, n: int) -> list[str]:
        out = [self.command, "--code", path]
        if self.command == "analyze":
            out += ["--with-batch", "--with-pir"]
        if self.mu is not None:
            out += ["--mu", ",".join([str(self.mu)] * n)]
        if self.lam is not None:
            out += ["--lambda", ",".join(str(x) for x in self.lam)]
        if self.integral:
            out.append("--integral")
        if self.t is not None:
            out += ["--t", str(self.t)]
        return out


@dataclass
class Workload:
    codes: dict[str, tuple[int, list[list[int]]]] = field(default_factory=dict)
    cycle: list[Query] = field(default_factory=list)

    def add_code(self, name: str, q: int, rows: list[list[int]]) -> str:
        self.codes[name] = (q, rows)
        return name


def simplex_rows(k: int) -> list[list[int]]:
    n = 2**k - 1
    return [[(j >> r) & 1 for j in range(1, n + 1)] for r in range(k)]


def rs2_rows(q: int, n: int, rng: random.Random) -> list[list[int]]:
    """k=2 code with columns (1, x) for distinct nonzero x: every column
    pair spans, and no column is a multiple of a unit vector."""
    xs = rng.sample(range(1, q), n)
    return [[1] * n, xs]


def systematic_rows(q: int, k: int, n: int, rng: random.Random) -> list[list[int]]:
    """Identity part plus n-k weight-2 parity columns on a fixed sequence of
    file pairs, with seeded coefficients; two parities on the same pair are
    never parallel. Recovery sets have at most two servers, so their
    structure, and with it the work per query, does not depend on the draw."""
    rows = [[int(r == j) for j in range(k)] for r in range(k)]
    ring = [(a, (a + 1) % k) for a in range(k)] if k > 2 else [(0, 1)]
    supports = ring + [(a, b) for a in range(k) for b in range(a + 2, k) if (b + 1) % k != a]
    chosen: list[tuple[int, int, int, int]] = []
    while len(chosen) < n - k:
        a, b = supports[len(chosen) % len(supports)]
        ca, cb = rng.randrange(1, q), rng.randrange(1, q)
        if any(a == a2 and b == b2 and ca * cb2 % q == cb * ca2 % q for a2, b2, ca2, cb2 in chosen):
            continue
        chosen.append((a, b, ca, cb))
    for a, b, ca, cb in chosen:
        for r in range(k):
            rows[r].append(ca if r == a else cb if r == b else 0)
    return rows


def scale_columns(q: int, rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same code with each column scaled by a nonzero scalar: every
    server spans the same subspace, so the recovery sets, the programs and
    the answers are unchanged, and so is the work."""
    scale = [rng.randrange(1, q) for _ in rows[0]]
    return [[x * c % q for x, c in zip(row, scale)] for row in rows]


def random_rows(q: int, k: int, n: int, rng: random.Random) -> list[list[int]]:
    return [[rng.randrange(q) for _ in range(n)] for _ in range(k)]


def boundary_demand(facts: CodeFacts, rng: random.Random) -> tuple[Fraction, ...]:
    """Colour split of a random maximum fractional matching: in the region,
    with total m_f."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for u, v, f in facts.edges:
        by_pair.setdefault((u, v), []).append(f)
    weight: dict[tuple[int, int], Fraction] = {}
    for u, v in double_cover_matching(facts.nvert, list(by_pair), rng):
        key = (min(u, v), max(u, v))
        weight[key] = weight.get(key, Fraction(0)) + Fraction(1, 2)
    lam = [Fraction(0)] * facts.k
    for key in sorted(weight):
        lam[rng.choice(by_pair[key]) - 1] += weight[key]
    return tuple(lam)


def _member_queries(w: Workload, code: str, rng: random.Random) -> None:
    facts = CodeFacts(*w.codes[code])
    for kind in ("interior", "boundary", "outside"):
        lam = list(boundary_demand(facts, rng))
        if kind == "interior":
            lam = [x * Fraction(rng.randint(1, 3), 4) for x in lam]
        elif kind == "outside":
            lam[rng.randrange(facts.k)] += Fraction(rng.randint(1, 2), 4)
        w.cycle.append(Query("member", code, lam=tuple(lam), expect_member=kind != "outside"))


def lp_heavy(rng: random.Random, smoke: bool) -> Workload:
    # Capacity under a uniform mu is the same LP with scaled right-hand
    # sides, so its cost does not depend on mu or on the draw. Repeating it
    # under several mu builds blocks of equal cost, so a seed cannot tip a
    # quantile from one query type to another:
    #   16 queries below 25 ms on simplex-4 and the n=6 RS code (with all the
    #      drawn demands, whose cost varies 5x),
    #   21 capacities on three RS n=8 codes over q=11 at ~30 ms, where the
    #      median falls (q=13 would cost a fifth more),
    #    6 simplex-5 capacities at ~45 ms, where the 90th percentile falls,
    #    2 above: simplex-5 membership at capacity (~0.6 s) and simplex-6
    #      capacity (0.2-0.4 s back to back, too unsteady for a quantile).
    w = Workload()
    mus = tuple(map(Fraction, ("2", "3", "3/2", "5/2", "4", "5")))
    s4 = w.add_code("simplex4", 2, simplex_rows(4))
    w.cycle += [Query("capacity", s4)] + [Query("capacity", s4, mu=mu) for mu in mus[:3]]
    w.cycle.append(Query("bounds", s4))
    rs6 = w.add_code("rs2-q7-n6", 7, rs2_rows(7, 6, rng))
    w.cycle += [Query("capacity", rs6)] + [Query("capacity", rs6, mu=mu) for mu in mus[:3]]
    w.cycle.append(Query("bounds", rs6))
    _member_queries(w, rs6, rng)
    _member_queries(w, rs6, rng)
    if smoke:
        return w
    for i in range(3):
        code = w.add_code(f"rs2-q11-n8-{i}", 11, rs2_rows(11, 8, rng))
        w.cycle += [Query("capacity", code)] + [Query("capacity", code, mu=mu) for mu in mus]
    s5 = w.add_code("simplex5", 2, simplex_rows(5))
    w.cycle += [Query("capacity", s5)] + [Query("capacity", s5, mu=mu) for mu in mus[:5]]
    # the uniform demand at capacity; a drawn boundary demand costs
    # 0.4-0.8 s here, and simplex-6 membership takes seconds per query
    w.cycle.append(Query("member", s5, lam=(Fraction(16, 5),) * 5, expect_member=True))
    w.cycle.append(Query("capacity", w.add_code("simplex6", 2, simplex_rows(6))))
    return w


WIDE_COMMANDS = ("capacity", "pir", "bounds", "graph")


def wide_field(rng: random.Random, smoke: bool) -> Workload:
    # Enumeration costs about 6 us * n * q^2 * k here, and the seed draws
    # only RS points and parity coefficients, which leave the work unchanged.
    # Blocks by cost, so that each quantile falls inside one block:
    #   11 queries at q=11 (every command on k = 2, 3, 4; 15-60 ms),
    #    8 `graph`/`pir` on RS n=8 codes over q=31 (~100 ms): the median,
    #    5 between: every command on k=3, n=6 over q=31 and `bounds` on the
    #      RS n=8 code over q=11 (~150 ms),
    #    6 at ~290 ms: every command on RS n=6 over q=61 and capacity/graph
    #      on k=4, n=8 over q=31: the 90th percentile,
    #    1 above: `graph` on RS n=4 over q=101 (~520 ms).
    w = Workload()

    def code(q: int, k: int, n: int, tag: str = "") -> str:
        rows = rs2_rows(q, n, rng) if k == 2 else systematic_rows(q, k, n, rng)
        return w.add_code(f"q{q}-k{k}-n{n}{tag}", q, rows)

    if smoke:
        w.cycle += [Query(c, code(11, k, 5)) for k in (2, 3) for c in WIDE_COMMANDS]
        w.cycle.append(Query("capacity", code(31, 4, 6)))
        return w
    w.cycle += [Query(c, code(11, k, 8)) for k in (2, 3, 4) for c in WIDE_COMMANDS]
    for i in range(4):
        rs = code(31, 2, 8, f"-{i}")
        w.cycle += [Query("graph", rs), Query("pir", rs)]
    w.cycle += [Query(c, code(31, 3, 6)) for c in WIDE_COMMANDS]
    w.cycle += [Query(c, code(61, 2, 6)) for c in WIDE_COMMANDS]
    w.cycle += [Query(c, code(31, 4, 8)) for c in ("capacity", "graph")]
    w.cycle.append(Query("graph", code(101, 2, 4)))
    return w


# simplex probes of the integral search: fixed demands, because the search
# has no work bound and its cost swings by 50x between demands of one sum
S5_INTEGRAL = ((1, 0, 1, 2, 4), (7, 0, 0, 5, 0), (3, 3, 4, 2, 2), (0, 3, 9, 3, 1),
               (0, 8, 5, 1, 2), (0, 0, 0, 12, 4), (0, 6, 7, 3, 0), (4, 4, 4, 4, 0))
S4_OVER = ((3, 4, 0, 2), (3, 2, 3, 1), (3, 0, 7, 0), (0, 4, 3, 3))
S5_BATCH_T = (8, 10, 12)


def small_codes(rng: random.Random, smoke: bool) -> Workload:
    # Five random codes of every shape (q, k, n), drawn once from a fixed
    # corpus seed. Codes drawn afresh per seed moved the 90th percentile by
    # a fifth between seeds, and renumbering files and servers changed a
    # query's cost up to 3x through the pivot order, so the seed only
    # scales columns (and orders the cycle), which leaves the work as it is.
    w = Workload()
    corpus = random.Random("small-codes corpus")
    shapes = [(q, k, n) for q in (2, 3) for k in (1, 2, 3) for n in range(1, 8)]
    for i, (q, k, n) in enumerate(shapes[::10] if smoke else shapes * 5):
        rows = scale_columns(q, random_rows(q, k, n, corpus), rng)
        w.cycle.append(Query("analyze", w.add_code(f"c{i:03d}-q{q}-k{k}-n{n}", q, rows)))
    s4 = w.add_code("simplex4", 2, simplex_rows(4))
    w.cycle.append(Query("batch", s4, simplex_k=4))
    w.cycle += [Query("member", s4, lam=tuple(map(Fraction, lam)), integral=True, expect_member=False)
                for lam in S4_OVER]
    if not smoke:
        s5 = w.add_code("simplex5", 2, simplex_rows(5))
        w.cycle += [Query("batch", s5, t=t, simplex_k=5) for t in S5_BATCH_T]
        w.cycle += [Query("member", s5, lam=tuple(map(Fraction, lam)), integral=True, expect_member=True)
                    for lam in S5_INTEGRAL]
    return w


def region_fm(rng: random.Random, smoke: bool) -> Workload:
    # Projection cost depends on the recovery-set structure and on q. Fully
    # random codes with equal set counts differed 15x in cost (38 vs 637 ms),
    # and q drawn from {5, 7, 11} moved the 90th percentile by a quarter, so
    # every code is over q=7 and the seed draws only coefficients and RS
    # points, which leave the structure fixed:
    #    8 systematic k=2, n=3 codes at ~9 ms,
    #   24 systematic k=3, n=4 codes at ~15 ms: the median,
    #    6 RS k=2, n=3 codes at ~170 ms: the 90th percentile.
    # Simplex-3 (~5 s) is left out: it made a cycle 6 s long, too few
    # cycles per run to take each query at its slow level.
    w = Workload()
    plan = [("sys", 2, 3, 8), ("sys", 3, 4, 24), ("rs", 2, 3, 6)]
    if smoke:
        plan = [(family, k, n, 1) for family, k, n, _ in plan]
    for family, k, n, count in plan:
        for i in range(count):
            rows = rs2_rows(7, n, rng) if family == "rs" else systematic_rows(7, k, n, rng)
            w.cycle.append(Query("region", w.add_code(f"{family}{k}-n{n}-{i}", 7, rows)))
    return w


BUILDERS = {"lp-heavy": lp_heavy, "wide-field": wide_field,
            "small-codes": small_codes, "region-fm": region_fm}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    w = BUILDERS[name](rng, smoke)
    rng.shuffle(w.cycle)
    return w
