"""Batch verification, retrieval parallelism, and the sum-4 allocation walk."""

from __future__ import annotations

from itertools import permutations

import pytest

import support
from servicerate.batchpir import (
    BATCH_ENUMERATION_CAP,
    algorithm1,
    batch_t_max,
    demand_vectors,
    is_batch_t,
    pir_t,
)
from servicerate.codes import GeneratorMatrix, enumerate_recovery_sets, simplex_code
from servicerate.errors import GuardError
from servicerate.graphrep import build_graph
from servicerate.region import integral_membership


def _simplex3():
    return enumerate_recovery_sets(simplex_code(3))


def _identity2():
    return enumerate_recovery_sets(GeneratorMatrix(2, [[1, 0], [0, 1]]))


def test_demand_vectors_order_and_count():
    vs = list(demand_vectors(3, 2))
    assert vs[0] == (2, 0, 0)
    assert vs == sorted(vs, reverse=True)
    assert len(vs) == 6  # C(4, 2)
    assert all(sum(v) == 2 for v in vs)
    assert list(demand_vectors(1, 5)) == [(5,)]


def test_is_batch_t_simplex3():
    cat = _simplex3()
    for t in (1, 2, 3, 4):
        ok, failing = is_batch_t(cat, t)
        assert ok and failing is None
    ok, failing = is_batch_t(cat, 5)
    assert not ok
    assert failing == (5, 0, 0)  # first vector in descending order already fails


def test_is_batch_t_validation_and_guard():
    cat = _simplex3()
    with pytest.raises(ValueError):
        is_batch_t(cat, 0)
    with pytest.raises(ValueError):
        is_batch_t(cat, True)
    # C(t+2, 2) > 10^6 needs t ~ 1413; the message names the count and the cap
    with pytest.raises(GuardError, match=r"C\(2002, 2\) = 2003001 vectors exceeds the 1000000 cap"):
        is_batch_t(cat, 2000)
    assert BATCH_ENUMERATION_CAP == 10**6


def test_batch_t_max_simplex3():
    report = batch_t_max(_simplex3())
    assert report.t_max == 4
    assert [v.t for v in report.verdicts] == [1, 2, 3, 4, 5]
    assert [v.all_served for v in report.verdicts] == [True] * 4 + [False]
    assert report.verdicts[-1].first_failure == (5, 0, 0)


def test_batch_t_max_identity2():
    # file 1 has a single recovery set, so (2, 0) already fails
    report = batch_t_max(_identity2())
    assert report.t_max == 1
    assert report.verdicts[-1].t == 2
    assert report.verdicts[-1].first_failure == (2, 0)


def test_batch_agrees_with_exhaustive_disjointness():
    # on the corpus, recompute each verdict by brute-force set packing
    for g in support.corpus(30):
        cat = enumerate_recovery_sets(g)
        if cat.total_sets == 0 or cat.total_sets > 12:
            continue
        report = batch_t_max(cat)
        for verdict in report.verdicts:
            for lam in demand_vectors(cat.k, verdict.t):
                want = support.brute_force_integral_member(cat, lam)
                if not want:
                    assert not verdict.all_served
                    break
            else:
                assert verdict.all_served


def test_batch_monotone_in_t():
    # servability of t implies servability of every smaller batch size
    for g in support.corpus(20):
        cat = enumerate_recovery_sets(g)
        if cat.total_sets == 0:
            continue
        report = batch_t_max(cat)
        flags = [v.all_served for v in report.verdicts]
        assert flags == sorted(flags, reverse=True)


def test_pir_simplex_family():
    # 2^(k-1) pairwise-disjoint sets per file
    for k in (2, 3, 4):
        report = pir_t(enumerate_recovery_sets(simplex_code(k)))
        assert report.t_pir == 2 ** (k - 1)
        assert report.per_file == (2 ** (k - 1),) * k


def test_pir_is_min_over_files():
    g = GeneratorMatrix(2, [[1, 0, 1], [0, 1, 0]])
    cat = enumerate_recovery_sets(g)
    report = pir_t(cat)
    assert report.t_pir == min(report.per_file)
    # file 1 can use {1} and {3} disjointly; file 2 only {2}
    assert report.per_file == (2, 1)


def test_pir_matches_brute_force_packing():
    for g in support.corpus(40):
        cat = enumerate_recovery_sets(g)
        if cat.total_sets > 14:
            continue
        report = pir_t(cat)
        for f in range(1, cat.k + 1):
            want = support.brute_force_max_disjoint_sets(cat.per_file[f - 1])
            assert report.per_file[f - 1] == want, (g, f)


def test_pir_serves_pure_demands():
    # per_file[f] disjoint sets serve that many requests for file f alone
    for g in support.corpus(20):
        cat = enumerate_recovery_sets(g)
        if cat.total_sets == 0:
            continue
        report = pir_t(cat)
        for f in range(1, cat.k + 1):
            lam = tuple(
                report.per_file[f - 1] if i == f else 0 for i in range(1, cat.k + 1)
            )
            assert integral_membership(cat, lam) is not None, (g, lam)


def test_algorithm1_all_demands():
    graph = build_graph(_simplex3())
    for lam in demand_vectors(3, 4):
        m = algorithm1(lam, graph)
        m.validate(graph)
        counts = m.color_counts(graph)
        assert tuple(counts.get(f, 0) for f in (1, 2, 3)) == lam
        assert m.size == 4


def test_algorithm1_pinned_walks():
    # hand-worked walks: starting from the four color-1 edges,
    # (2,2,0) swaps in the two color-2 edges closing the first 4-cycle, and
    # (2,1,1) takes the systematic columns of files 2 and 3
    graph = build_graph(_simplex3())

    def pairs(m):
        return sorted(m.vertex_pairs(graph))

    m220 = algorithm1((2, 2, 0), graph)
    assert pairs(m220) == [(1, 8), (2, 3), (4, 6), (5, 7)]
    m211 = algorithm1((2, 1, 1), graph)
    assert pairs(m211) == [(1, 8), (2, 9), (4, 10), (6, 7)]


def test_algorithm1_starts_from_most_demanded_file():
    graph = build_graph(_simplex3())
    m = algorithm1((0, 4, 0), graph)
    assert all(graph.edges[i].file == 2 for i in m.edges)
    m = algorithm1((0, 0, 4), graph)
    assert all(graph.edges[i].file == 3 for i in m.edges)


def test_algorithm1_validation():
    with pytest.raises(ValueError):
        algorithm1((2, 2))
    with pytest.raises(ValueError):
        algorithm1((2, 2, 1))
    with pytest.raises(ValueError):
        algorithm1((2, -1, 3))
    with pytest.raises(ValueError):
        algorithm1((True, 2, 1))
    graph = build_graph(enumerate_recovery_sets(simplex_code(2)))
    with pytest.raises(ValueError):
        algorithm1((2, 1, 1), graph)
    scaled = build_graph(_simplex3(), [2] * 7)
    with pytest.raises(ValueError):
        algorithm1((2, 1, 1), scaled)


def test_algorithm1_agrees_with_integral_membership():
    cat = _simplex3()
    for lam in demand_vectors(3, 4):
        m = algorithm1(lam)
        w = integral_membership(cat, lam)
        assert w is not None  # the walk and the search must both succeed
        assert tuple(int(sum(row)) for row in w.per_file) == lam


def test_algorithm1_deterministic():
    graph = build_graph(_simplex3())
    for lam in set(permutations((2, 1, 1))) | set(permutations((4, 0, 0))):
        first = algorithm1(lam, graph)
        again = algorithm1(lam, graph)
        assert first.edges == again.edges
