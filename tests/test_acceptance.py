"""Acceptance gate: eleven checks, each printing one PASS/FAIL line.

Everything numeric is exact (Fraction); the only floats here are wall-clock
budgets. Lines go to the real stdout so they survive pytest's capture.
"""

from __future__ import annotations

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import support
from servicerate.batchpir import algorithm1, batch_t_max, demand_vectors, is_batch_t, pir_t
from servicerate.codes import enumerate_recovery_sets, simplex_code
from servicerate.graphrep import build_graph, is_bipartite
from servicerate.lp import LE, LinearProgram, solve_max
from servicerate.matching import (
    fractional_matching_number,
    fractional_matching_oracle,
    max_matching,
    min_vertex_cover,
)
from servicerate.region import Allocation, capacity, membership, project_region

F = Fraction


@contextmanager
def criterion(num: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(num, label, "FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        _line(num, label, f"FAIL (over budget: {elapsed:.2f}s / {budget:g}s)")
        raise AssertionError(f"criterion {num} exceeded {budget:g}s: {elapsed:.2f}s")
    _line(num, label, f"PASS ({elapsed:.2f}s / {budget:g}s)")


def _line(num: int, label: str, verdict: str) -> None:
    print(f"criterion {num:2d} {label}: {verdict}", file=sys.__stdout__, flush=True)


def _simplex_catalog(k: int):
    return enumerate_recovery_sets(simplex_code(k))


def _validate_allocation(cat, alloc: Allocation) -> None:
    loads = [F(0)] * cat.n
    for row, sets in zip(alloc.per_file, cat.per_file):
        for value, rs in zip(row, sets):
            assert value >= 0
            for s in rs.servers:
                loads[s - 1] += value
    assert all(load <= 1 for load in loads)


def test_criterion_01_simplex_capacity():
    with criterion(1, "simplex-3 capacity", 1.0):
        cat = _simplex_catalog(3)
        value, maximizer, alloc = capacity(cat)
        assert value == F(4)
        assert alloc.demand() == maximizer
        assert sum(maximizer) == F(4)
        _validate_allocation(cat, alloc)


def test_criterion_02_simplex_bounds():
    with criterion(2, "simplex-3 graph bounds", 1.0):
        graph = build_graph(_simplex_catalog(3))
        m = max_matching(graph)
        m.validate(graph)
        assert m.size == 4
        mf, values = fractional_matching_number(graph)
        assert support.check_fractional_matching(graph, values) == mf == F(4)
        cover = min_vertex_cover(graph)
        cover.validate(graph)
        assert cover.size == 4


def test_criterion_03_simplex_bipartite_sides():
    with criterion(3, "simplex bipartition k=2..5", 5.0):
        for k in (2, 3, 4, 5):
            n = 2**k - 1
            graph = build_graph(_simplex_catalog(k))
            part = is_bipartite(graph)
            assert part is not None
            side1 = part.side_a if 1 in part.side_a else part.side_b
            odd = {j for j in range(1, n + 1) if bin(j).count("1") % 2 == 1}
            assert {v for v in side1 if v <= n} == odd
            for e in graph.edges:
                assert (e.u in part.side_a) != (e.v in part.side_a)


def test_criterion_04_simplex_all_parameters_collapse():
    with criterion(4, "m = m_f = v = capacity = 2^(k-1)", 30.0):
        for k in (2, 3, 4):
            want = F(2 ** (k - 1))
            cat = _simplex_catalog(k)
            graph = build_graph(cat)
            assert F(max_matching(graph).size) == want
            assert fractional_matching_number(graph)[0] == want
            assert F(min_vertex_cover(graph).size) == want
            assert capacity(cat)[0] == want


def test_criterion_05_simplex_batch():
    with criterion(5, "simplex-3 batch t_max", 1.0):
        cat = _simplex_catalog(3)
        report = batch_t_max(cat)
        assert report.t_max == 4
        vectors = list(demand_vectors(3, 4))
        assert len(vectors) == 15
        ok, failing = is_batch_t(cat, 4)
        assert ok and failing is None
        last = report.verdicts[-1]
        assert (last.t, last.all_served, last.first_failure) == (5, False, (5, 0, 0))


def test_criterion_06_simplex_pir():
    with criterion(6, "simplex PIR k=2..4", 5.0):
        for k in (2, 3, 4):
            want = 2 ** (k - 1)
            cat = _simplex_catalog(k)
            report = pir_t(cat)
            assert report.t_pir == want
            assert report.per_file == (want,) * k
            graph = build_graph(cat)
            for f in range(1, k + 1):
                sub = graph.subgraph_of_file(f)
                m = max_matching(sub)
                assert m.size == want
                used: set[int] = set()
                for idx in m.edges:
                    servers = set(sub.recovery_set_of(idx).servers)
                    assert not (servers & used)
                    used |= servers


def test_criterion_07_algorithm1_all_sum4_demands():
    with criterion(7, "sum-4 allocation walk", 1.0):
        graph = build_graph(_simplex_catalog(3))
        vectors = list(demand_vectors(3, 4))
        assert len(vectors) == 15
        for lam in vectors:
            m = algorithm1(lam, graph)
            m.validate(graph)
            assert m.size == 4
            counts = m.color_counts(graph)
            assert tuple(counts.get(f, 0) for f in (1, 2, 3)) == lam
        # the two hand-worked walks land on these exact matchings
        m220 = algorithm1((2, 2, 0), graph)
        assert sorted(m220.vertex_pairs(graph)) == [(1, 8), (2, 3), (4, 6), (5, 7)]
        m211 = algorithm1((2, 1, 1), graph)
        assert sorted(m211.vertex_pairs(graph)) == [(1, 8), (2, 9), (4, 10), (6, 7)]


def test_criterion_08_region_geometry():
    with criterion(8, "simplex-3 region projection", 10.0):
        region = project_region(_simplex_catalog(3))
        assert region.k == 3
        assert len(region.halfspaces) == 1
        h = region.halfspaces[0]
        assert (h.coeffs, h.rhs) == ((F(1), F(1), F(1)), F(4))
        assert set(region.vertices) == {
            (F(0), F(0), F(0)),
            (F(4), F(0), F(0)),
            (F(0), F(4), F(0)),
            (F(0), F(0), F(4)),
        }


def test_criterion_09_capacity_equals_fractional_matching():
    with criterion(9, "capacity = m_f on 200 random codes", 120.0):
        rng = random.Random(916)
        codes = support.corpus(200)
        assert len(codes) >= 200
        for g in codes:
            cat = enumerate_recovery_sets(g)
            graph = build_graph(cat)
            cap = capacity(cat)[0]
            assert cap == fractional_matching_oracle(graph), g
            if cat.total_sets == 0:
                assert cap == 0
                continue
            # member allocation -> edge weights form a fractional matching
            flat = support.random_member_allocation(cat, rng)
            lam = Allocation.from_flat(cat, flat).demand()
            assert support.check_fractional_matching(graph, flat) == sum(lam)
            # fractional matching -> its demand vector is a member
            values = support.random_fractional_matching(graph, rng)
            alloc = Allocation.from_flat(cat, values)
            assert membership(cat, alloc.demand()) is not None, g


def test_criterion_10_sandwich_and_oracles():
    with criterion(10, "m <= m_f <= v, dual oracles", 120.0):
        rng = random.Random(1016)
        for g in support.corpus(200):
            cat = enumerate_recovery_sets(g)
            graph = build_graph(cat)
            m = F(max_matching(graph).size)
            mf, _ = fractional_matching_number(graph)
            v = F(min_vertex_cover(graph).size)
            assert m <= mf <= v, g
            assert mf == fractional_matching_oracle(graph), g
            if is_bipartite(graph) is not None:
                assert m == mf == v, g
        for _ in range(60):
            nvars = rng.randint(1, 6)
            prog = LinearProgram(nvars, [F(rng.randint(-4, 4)) for _ in range(nvars)])
            for _ in range(rng.randint(1, 5)):
                prog.add_constraint(
                    [F(rng.randint(-3, 3)) for _ in range(nvars)],
                    LE,
                    F(rng.randint(0, 8)),
                )
            for j in range(nvars):
                unit = [F(int(i == j)) for i in range(nvars)]
                prog.add_constraint(unit, LE, F(rng.randint(1, 9)))
            out = solve_max(prog)
            status, value = support.brute_force_lp_max(prog)
            assert out.status == status
            if status == "optimal":
                assert out.value == value


def test_criterion_11_region_shape():
    with criterion(11, "convex, downward closed, 0, bounded", 60.0):
        rng = random.Random(1116)
        for g in support.corpus(200):
            cat = enumerate_recovery_sets(g)
            zero = (F(0),) * cat.k
            assert membership(cat, zero) is not None
            if cat.total_sets == 0:
                continue
            lam_a = Allocation.from_flat(cat, support.random_member_allocation(cat, rng)).demand()
            lam_b = Allocation.from_flat(cat, support.random_member_allocation(cat, rng)).demand()
            theta = F(rng.randint(0, 8), 8)
            mix = tuple(theta * a + (1 - theta) * b for a, b in zip(lam_a, lam_b))
            assert membership(cat, mix) is not None, (g, mix)
            shrink = tuple(x * F(rng.randint(0, 4), 4) for x in lam_a)
            assert membership(cat, shrink) is not None, (g, shrink)
            assert sum(lam_a) <= cat.n  # total load within sum of unit budgets
            assert capacity(cat)[0] <= cat.n
        # scaled budgets bound the total the same way
        cat = _simplex_catalog(2)
        mu = [F(3, 2), F(1), F(2)]
        assert capacity(cat, mu)[0] <= sum(mu)
