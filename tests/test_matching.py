"""Matching, fractional matching, and vertex cover against brute force."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

import support
from servicerate.codes import enumerate_recovery_sets, simplex_code
from servicerate.errors import GuardError
from servicerate.graphrep import build_graph
from servicerate.lp import EQ, LE
from servicerate.matching import (
    COVER_SEARCH_CAP,
    Matching,
    allocation_program,
    fractional_matching_number,
    fractional_matching_oracle,
    max_matching,
    min_vertex_cover,
)

F = Fraction


def _all_small_graphs(max_vertices=5):
    """Every labelled simple graph on up to max_vertices vertices."""
    for n in range(1, max_vertices + 1):
        slots = list(combinations(range(1, n + 1), 2))
        for mask in range(2 ** len(slots)):
            pairs = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            yield support.graph_from_pairs(pairs, extra_isolated=n - max(
                (max(p) for p in pairs), default=0
            ))


def test_matching_validate():
    graph = support.graph_from_pairs([(1, 2), (2, 3)])
    Matching((0,)).validate(graph)
    with pytest.raises(ValueError):
        Matching((0, 1)).validate(graph)  # edges share vertex 2


def test_fractional_matching_validate():
    graph = support.graph_from_pairs([(1, 2), (2, 3)])
    assert support.check_fractional_matching(graph, (F(1, 2), F(1, 2))) == 1
    with pytest.raises(ValueError):
        support.check_fractional_matching(graph, (F(1, 2),))
    with pytest.raises(ValueError):
        support.check_fractional_matching(graph, (F(3, 4), F(1, 2)))  # vertex 2 over
    with pytest.raises(ValueError):
        support.check_fractional_matching(graph, (F(-1, 2), F(1, 2)))


def test_simple_matchings():
    path = support.graph_from_pairs([(1, 2), (2, 3), (3, 4)])
    assert max_matching(path).size == 2
    triangle = support.graph_from_pairs([(1, 2), (2, 3), (1, 3)])
    assert max_matching(triangle).size == 1
    # two triangles joined by a bridge need blossom handling
    bowtie = support.graph_from_pairs(
        [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
    )
    assert max_matching(bowtie).size == 3


def test_petersen_graph_perfect_matching():
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    graph = support.graph_from_pairs(outer + spokes + inner)
    m = max_matching(graph)
    m.validate(graph)
    assert m.size == 5


def test_matching_exhaustive_small_graphs():
    count = 0
    for graph in _all_small_graphs(5):
        m = max_matching(graph)
        m.validate(graph)
        assert m.size == support.brute_force_max_matching(graph)
        count += 1
    assert count > 1000


def test_matching_respects_smallest_parallel_edge():
    # parallel (1,2) edges: the matching must cite index 0
    graph = support.graph_from_pairs([(1, 2), (1, 2), (1, 2)])
    m = max_matching(graph)
    assert m.edges == (0,)


def test_cover_exhaustive_small_graphs():
    rng = random.Random(11)
    graphs = list(_all_small_graphs(4))
    for graph in graphs:
        c = min_vertex_cover(graph)
        c.validate(graph)
        assert c.size == support.brute_force_min_vertex_cover(graph)
    # a sample of 5-vertex graphs for the non-bipartite branch
    fives = [g for g in _all_small_graphs(5) if g.edge_count >= 4]
    for graph in rng.sample(fives, 120):
        assert min_vertex_cover(graph).size == support.brute_force_min_vertex_cover(graph)


def test_cover_equals_matching_on_bipartite():
    for k in (2, 3):
        graph = build_graph(enumerate_recovery_sets(simplex_code(k)))
        assert min_vertex_cover(graph).size == max_matching(graph).size


def test_cover_guard_on_large_nonbipartite():
    triangle = [(1, 2), (2, 3), (1, 3)]
    big = support.graph_from_pairs(triangle, extra_isolated=62)
    assert big.vertex_count == 65 > COVER_SEARCH_CAP
    with pytest.raises(GuardError):
        min_vertex_cover(big)
    # exactly at the cap it still runs
    at_cap = support.graph_from_pairs(triangle, extra_isolated=61)
    assert at_cap.vertex_count == 64
    assert min_vertex_cover(at_cap).size == 2
    # bipartite graphs of any size bypass the guard entirely
    ladder = support.graph_from_pairs([(i, i + 50) for i in range(1, 51)])
    assert ladder.vertex_count == 100
    assert min_vertex_cover(ladder).size == 50


def test_allocation_program_rows():
    # one variable per recovery set in flat catalog order, one capacity row
    # per server, then one demand row per file when a demand is given
    cat = enumerate_recovery_sets(simplex_code(3))
    graph = build_graph(cat, [2, 1, 1, 1, 1, 1, 1])
    flat = [rs for sets in cat.per_file for rs in sets]
    prog = allocation_program(graph)
    assert prog.num_vars == len(flat) == graph.edge_count
    assert prog.objective == [1] * len(flat)
    assert [(rel, rhs) for _, rel, rhs in prog.rows] == [(LE, 2)] + [(LE, 1)] * 6
    for server, (coeffs, _, _) in enumerate(prog.rows, start=1):
        assert coeffs == [int(server in rs.servers) for rs in flat]

    member = allocation_program(graph, (F(1), F(2), F(0)))
    assert not any(member.objective)
    assert member.rows[:7] == prog.rows
    assert [(rel, rhs) for _, rel, rhs in member.rows[7:]] == [(EQ, 1), (EQ, 2), (EQ, 0)]
    for file, (coeffs, _, _) in enumerate(member.rows[7:], start=1):
        assert coeffs == [int(rs.file == file) for rs in flat]


def test_fractional_matching_lp_route():
    triangle = support.graph_from_pairs([(1, 2), (2, 3), (1, 3)])
    value, values = fractional_matching_number(triangle)
    assert isinstance(values, tuple)
    assert support.check_fractional_matching(triangle, values) == value == F(3, 2)
    # the integral matching number is strictly below it
    assert max_matching(triangle).size == 1


def test_fractional_matching_requires_unit_capacities():
    cat = enumerate_recovery_sets(simplex_code(2))
    graph = build_graph(cat, [2, 1, 1])
    with pytest.raises(ValueError):
        fractional_matching_number(graph)


def test_fractional_oracle_agrees_with_lp():
    rng = random.Random(99)
    checked = 0
    for graph in _all_small_graphs(5):
        if graph.edge_count == 0 or rng.random() < 0.9:
            continue
        value, _ = fractional_matching_number(graph)
        assert value == fractional_matching_oracle(graph)
        checked += 1
    assert checked >= 50


def test_sandwich_on_simplex_and_triangle():
    # m <= m_f <= v everywhere; equalities on bipartite graphs
    graph = build_graph(enumerate_recovery_sets(simplex_code(3)))
    m = max_matching(graph).size
    mf, _ = fractional_matching_number(graph)
    v = min_vertex_cover(graph).size
    assert (m, mf, v) == (4, F(4), 4)

    tri = support.graph_from_pairs([(1, 2), (2, 3), (1, 3)])
    assert max_matching(tri).size == 1
    assert fractional_matching_number(tri)[0] == F(3, 2)
    assert min_vertex_cover(tri).size == 2


def test_random_fractional_matchings_never_beat_optimum():
    rng = random.Random(5)
    for g in support.corpus(25):
        graph = build_graph(enumerate_recovery_sets(g))
        if graph.edge_count == 0:
            continue
        best, _ = fractional_matching_number(graph)
        for _ in range(4):
            values = support.random_fractional_matching(graph, rng)
            assert support.check_fractional_matching(graph, values) <= best
