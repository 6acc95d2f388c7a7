"""Colored-graph construction, bipartiteness, and DOT export."""

from __future__ import annotations

from fractions import Fraction

import pytest

import support
from servicerate.codes import GeneratorMatrix, enumerate_recovery_sets, simplex_code
from servicerate.graphrep import build_graph, export_dot, is_bipartite

F = Fraction


def _simplex3_graph(mu=None):
    return build_graph(enumerate_recovery_sets(simplex_code(3)), mu)


def _triangle_graph():
    # GF(3) code whose three pair sets per file form a triangle on
    # servers {1,2,3}; no singleton recovers any file
    g = GeneratorMatrix(3, [[2, 2, 1], [2, 1, 2], [1, 2, 2]])
    return build_graph(enumerate_recovery_sets(g))


def test_simplex3_shape():
    graph = _simplex3_graph()
    assert graph.n_real == 7
    assert graph.vertex_count == 10
    assert graph.dummy_count == 3
    assert graph.edge_count == 12
    # one dummy per singleton set, attached at the recovered column
    dummies = [v for v in graph.vertices if v.is_dummy]
    assert all(v.label == "0" for v in dummies)
    attach = sorted(
        e.u for e in graph.edges if graph.vertex(e.v).is_dummy or graph.vertex(e.u).is_dummy
    )
    assert attach == [1, 2, 4]


def test_edges_carry_file_and_set_index():
    graph = _simplex3_graph()
    for idx, e in enumerate(graph.edges):
        rs = graph.recovery_set_of(idx)
        assert rs.file == e.file
        if rs.size == 2:
            assert rs.servers == (e.u, e.v)
        else:
            assert rs.servers[0] in (e.u, e.v)
        assert e.u < e.v


def test_default_capacities_are_one():
    graph = _simplex3_graph()
    assert graph.has_unit_capacities()
    assert all(v.capacity == 1 for v in graph.vertices)


def test_dummy_capacity_mirrors_endpoint():
    mu = [F(2), F(1), F(3), F(5), F(1), F(1), F(1)]
    graph = _simplex3_graph(mu)
    assert not graph.has_unit_capacities()
    for e in graph.edges:
        v = graph.vertex(e.v)
        if v.is_dummy:
            assert v.capacity == graph.vertex(e.u).capacity
    # dummies attach at columns 1, 2, 4 -> capacities 2, 1, 5
    assert sorted(v.capacity for v in graph.vertices if v.is_dummy) == [1, 2, 5]


def test_capacity_validation():
    cat = enumerate_recovery_sets(simplex_code(3))
    with pytest.raises(ValueError):
        build_graph(cat, [1, 1])
    with pytest.raises(ValueError):
        build_graph(cat, [1, 1, 1, 1, 1, 1, -1])


def test_adjacency_helpers():
    graph = _simplex3_graph()
    # server 1: singleton dummy edge (file 1) plus pairs (1,3) file 2 and (1,5) file 3
    incident = graph.incident_edges(1)
    assert len(incident) == 3
    nbrs = {v for idx in incident for v in graph.edges[idx].endpoints() if v != 1}
    assert 3 in nbrs and 5 in nbrs and len(nbrs) == 3
    for idx in incident:
        e = graph.edges[idx]
        assert 1 in e.endpoints()


def test_simplex_is_bipartite_by_column_parity():
    # every recovery pair joins an odd-weight and an even-weight
    # column, so odd-weight columns form one side
    graph = _simplex3_graph()
    part = is_bipartite(graph)
    assert part is not None
    reals_a = sorted(v for v in part.side_a if v <= 7)
    assert reals_a == [1, 2, 4, 7]
    assert 1 in part.side_a and 3 in part.side_b
    for e in graph.edges:
        assert (e.u in part.side_a) != (e.v in part.side_a)


def test_triangle_not_bipartite():
    graph = _triangle_graph()
    assert graph.n_real == 3
    assert graph.dummy_count == 0
    assert is_bipartite(graph) is None


def test_bipartition_on_disconnected_graph():
    graph = support.graph_from_pairs([(1, 2), (3, 4)], extra_isolated=1)
    part = is_bipartite(graph)
    assert part is not None
    # smallest id of each component lands in side_a; isolated vertex too
    assert {1, 3, 5} <= part.side_a
    assert {2, 4} <= part.side_b


def test_subgraph_of_file():
    graph = _simplex3_graph()
    sub = graph.subgraph_of_file(2)
    assert sub.vertex_count == graph.vertex_count
    assert sub.edge_count == 4
    assert all(e.file == 2 for e in sub.edges)


def test_json_dict_schema():
    graph = _simplex3_graph()
    d = graph.to_json_dict()
    assert set(d) == {"vertices", "edges"}
    assert d["vertices"][0] == {"id": 1, "label": "1", "capacity": "1"}
    assert all(set(e) == {"u", "v", "file"} for e in d["edges"])
    assert sum(1 for v in d["vertices"] if v["label"] == "0") == 3


def test_dot_export():
    graph = _simplex3_graph()
    dot = export_dot(graph)
    assert dot.startswith("graph service_rate {")
    assert dot.endswith("}\n")
    assert dot.count(" -- ") == graph.edge_count
    assert dot.count("style=dashed") == 3
    # one color per file
    assert 'color=magenta, label="f1"' in dot
    assert 'color=green, label="f2"' in dot
    assert 'color=blue, label="f3"' in dot


def test_dot_export_triangle():
    dot = export_dot(_triangle_graph())
    assert dot.count(" -- ") == 3
    assert "style=dashed" not in dot
