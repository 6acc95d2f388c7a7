"""Demand feasibility, capacity (dual routes), projection, integral service."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import support
from servicerate.codes import GeneratorMatrix, enumerate_recovery_sets, simplex_code
from servicerate.errors import GuardError
from servicerate.graphrep import build_graph
from servicerate.matching import fractional_matching_oracle
from servicerate.region import (
    Allocation,
    as_demand,
    capacity,
    integral_membership,
    membership,
    project_region,
)

F = Fraction


def _catalog(matrix):
    return enumerate_recovery_sets(matrix)


def _simplex3():
    return _catalog(simplex_code(3))


def _triangle():
    return _catalog(GeneratorMatrix(3, [[2, 2, 1], [2, 1, 2], [1, 2, 2]]))


def _identity2():
    return _catalog(GeneratorMatrix(2, [[1, 0], [0, 1]]))


def test_as_demand():
    lam = as_demand(["1/2", 1, F(3, 4)], 3)
    assert lam == (F(1, 2), F(1), F(3, 4))
    with pytest.raises(ValueError):
        as_demand([1, 2], 3)
    with pytest.raises(ValueError):
        as_demand([-1, 0, 0], 3)


def test_floats_and_bools_are_refused():
    # a float is not the rational it prints as, and a bool is no demand or
    # capacity at all: both are refused with the offending entry named
    for bad in (0.1, float("inf"), True):
        with pytest.raises(ValueError, match=f"demand entry 1 is {bad!r}"):
            as_demand([bad, 1, 1], 3)
        with pytest.raises(ValueError, match="demand entry 2"):
            membership(_simplex3(), (1, bad, 1))
        with pytest.raises(ValueError, match=f"capacity entry 7 is {bad!r}"):
            capacity(_simplex3(), [1] * 6 + [bad])
        with pytest.raises(ValueError, match="capacity entry 1"):
            build_graph(_identity2(), [bad, 1])
    assert as_demand([F(1, 10), "0.1", 0], 3) == (F(1, 10), F(1, 10), F(0))


def test_allocation_round_trip():
    cat = _simplex3()
    flat = [F(i, 4) for i in range(cat.total_sets)]
    alloc = Allocation.from_flat(cat, flat)
    assert [v for row in alloc.per_file for v in row] == flat
    lam = alloc.demand()
    assert lam[0] == sum(flat[:4])


def test_membership_simplex3():
    cat = _simplex3()
    w = membership(cat, (2, 1, 1))
    assert w is not None
    assert w.demand() == (F(2), F(1), F(1))
    assert membership(cat, (5, 0, 0)) is None
    # boundary: total 4 reachable, beyond it never
    assert membership(cat, (4, 0, 0)) is not None
    assert membership(cat, ("7/2", "1/2", 0)) is not None


def test_membership_witness_is_feasible():
    rng = random.Random(31)
    for g in support.corpus(40):
        cat = _catalog(g)
        if cat.total_sets == 0:
            continue
        flat = support.random_member_allocation(cat, rng)
        lam = Allocation.from_flat(cat, flat).demand()
        w = membership(cat, lam)
        assert w is not None
        # witness serves exactly lam and respects unit budgets
        assert w.demand() == lam
        loads = [F(0)] * cat.n
        for row, sets in zip(w.per_file, cat.per_file):
            for value, rs in zip(row, sets):
                assert value >= 0
                for s in rs.servers:
                    loads[s - 1] += value
        assert all(load <= 1 for load in loads)


def test_membership_scaled_capacities():
    cat = _identity2()
    mu = [F(2), F(3)]
    assert membership(cat, (2, 3), mu) is not None
    assert membership(cat, ("5/2", 3), mu) is None
    with pytest.raises(ValueError):
        membership(cat, (1, 1), [1, 1, 1])


def test_capacity_simplex_family():
    # the k-file binary simplex code serves total demand 2^(k-1)
    for k in (2, 3, 4):
        cat = _catalog(simplex_code(k))
        value, maximizer, alloc = capacity(cat)
        assert value == 2 ** (k - 1)
        assert sum(maximizer) == value
        assert membership(cat, maximizer) is not None
        assert alloc.demand() == maximizer
        assert fractional_matching_oracle(build_graph(cat)) == value


def test_capacity_triangle():
    # three servers, each file served only by pair sets: the
    # optimum splits 1/2 per edge; odd cycle forces the half-integral value
    cat = _triangle()
    value, maximizer, _ = capacity(cat)
    assert value == F(3, 2)
    assert sum(maximizer) == F(3, 2)
    assert fractional_matching_oracle(build_graph(cat)) == F(3, 2)


def test_capacity_respects_mu():
    cat = _identity2()
    value, maximizer, _ = capacity(cat, [2, 3])
    assert value == F(5)
    assert maximizer == (F(2), F(3))


def test_capacity_refuses_mu_with_a_graph():
    # the graph already fixes the capacities, so a second mu would be ignored
    cat = _identity2()
    with pytest.raises(ValueError, match="not both"):
        capacity(cat, [2, 3], build_graph(cat, [2, 3]))
    assert capacity(cat, None, build_graph(cat, [2, 3]))[0] == F(5)


def test_capacity_equals_fractional_matching_on_corpus():
    for g in support.corpus(60):
        cat = _catalog(g)
        assert capacity(cat)[0] == fractional_matching_oracle(build_graph(cat))


def test_integral_membership_simplex3():
    cat = _simplex3()
    w = integral_membership(cat, (2, 1, 1))
    assert w is not None
    # whole sets only, pairwise disjoint across all files
    used: set[int] = set()
    picked = 0
    for values, sets in zip(w.per_file, cat.per_file):
        for x, rs in zip(values, sets):
            assert x in (F(0), F(1))
            if x:
                picked += 1
                assert not (used & set(rs.servers))
                used.update(rs.servers)
    assert picked == 4
    assert integral_membership(cat, (4, 0, 0)) is not None
    assert integral_membership(cat, (5, 0, 0)) is None
    assert integral_membership(cat, (2, 2, 1)) is None  # total above capacity


def test_integral_membership_validation():
    cat = _identity2()
    with pytest.raises(ValueError):
        integral_membership(cat, (F(1, 2), 0))
    with pytest.raises(ValueError):
        integral_membership(cat, (-1, 0))
    with pytest.raises(ValueError):
        integral_membership(cat, (1, 0, 0))
    with pytest.raises(ValueError):
        integral_membership(cat, (True, 0))


def test_integral_membership_matches_brute_force():
    rng = random.Random(17)
    for g in support.corpus(40):
        cat = _catalog(g)
        k = cat.k
        for _ in range(3):
            lam = tuple(rng.randint(0, 2) for _ in range(k))
            got = integral_membership(cat, lam)
            want = support.brute_force_integral_member(cat, lam)
            assert (got is not None) == want, (g, lam)
            if got is not None:
                assert got.demand() == tuple(F(x) for x in lam)


def test_integral_implies_fractional():
    cat = _identity2()
    # (1,1) integrally servable, (2,0) not (file 1 has one recovery set)
    assert integral_membership(cat, (1, 1)) is not None
    assert integral_membership(cat, (2, 0)) is None
    assert membership(cat, (2, 0)) is None


def test_project_region_simplex3():
    # single binding face: total demand at most 4
    region = project_region(_simplex3())
    assert region.k == 3
    assert len(region.halfspaces) == 1
    h = region.halfspaces[0]
    assert h.coeffs == (F(1), F(1), F(1)) and h.rhs == F(4)
    assert region.vertices == (
        (F(0), F(0), F(0)),
        (F(0), F(0), F(4)),
        (F(0), F(4), F(0)),
        (F(4), F(0), F(0)),
    )
    assert support.region_contains(region, (2, 1, 1))
    assert support.region_contains(region, ("1/3", "2/3", 3))
    assert not support.region_contains(region, (3, 1, "1/2"))
    assert not support.region_contains(region, (-1, 0, 0))


def test_project_region_identity_box():
    region = project_region(_identity2(), [2, 3])
    assert [(h.coeffs, h.rhs) for h in region.halfspaces] == [
        ((F(0), F(1)), F(3)),
        ((F(1), F(0)), F(2)),
    ]
    assert region.vertices == (
        (F(0), F(0)),
        (F(0), F(3)),
        (F(2), F(0)),
        (F(2), F(3)),
    )


def test_project_region_triangle():
    region = project_region(_triangle())
    # every demand point must match the LP answer on a grid
    for a in range(0, 4):
        for b in range(0, 4):
            for c in range(0, 4):
                lam = (F(a, 2), F(b, 2), F(c, 2))
                assert support.region_contains(region, lam) == (membership(_triangle(), lam) is not None)


def test_project_region_agrees_with_membership_on_corpus():
    # unit capacities, the golden test's mu, and a mu with zeros (dead files)
    mus = (
        lambda n: None,
        lambda n: [F(l % 3 + 1, 2) for l in range(n)],
        lambda n: [F(l % 3) for l in range(n)],
    )
    eps = F(1, 1000)
    rng = random.Random(23)
    for g in support.corpus(200):
        cat = _catalog(g)
        if cat.k > 3:
            continue
        for make_mu in mus:
            mu = make_mu(cat.n)
            region = project_region(cat, mu)
            for vtx in region.vertices:
                assert membership(cat, vtx, mu) is not None, (g, mu, vtx)
            # just beyond the centroid of each facet's vertices, which lies in
            # the facet's relative interior, the region ends
            for h in region.halfspaces:
                on = [v for v in region.vertices if sum(c * x for c, x in zip(h.coeffs, v)) == h.rhs]
                inner = [sum(xs) / len(on) for xs in zip(*on)]
                beyond = tuple(x + eps * c for x, c in zip(inner, h.coeffs))
                assert membership(cat, beyond, mu) is None, (g, mu, h)
            for _ in range(4):
                lam = tuple(F(rng.randint(0, 4), 2) for _ in range(cat.k))
                assert support.region_contains(region, lam) == (membership(cat, lam, mu) is not None), (g, mu, lam)


def test_project_region_dead_files_are_canonical():
    # a zero capacity can leave a file nothing to serve it: that file gets
    # lam_i <= 0 and coefficient 0 in every other half-space
    one_dead = _catalog(GeneratorMatrix(2, [[0, 1, 0], [0, 0, 1], [1, 1, 1]]))
    region = project_region(one_dead, [F(1, 2), 1, 0])
    assert [(h.coeffs, h.rhs) for h in region.halfspaces] == [
        ((F(0), F(1), F(0)), F(0)),
        ((F(2), F(0), F(2)), F(1)),
    ]
    assert region.vertices == (
        (F(0), F(0), F(0)),
        (F(0), F(0), F(1, 2)),
        (F(1, 2), F(0), F(0)),
    )
    all_dead = _catalog(GeneratorMatrix(2, [[1, 0, 0], [1, 0, 1]]))
    region = project_region(all_dead, [F(1, 2), 1, 0])
    assert [(h.coeffs, h.rhs) for h in region.halfspaces] == [
        ((F(0), F(1)), F(0)),
        ((F(1), F(0)), F(0)),
    ]
    assert region.vertices == ((F(0), F(0)),)


def test_project_region_guard():
    g = GeneratorMatrix(2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    cat = _catalog(g)
    with pytest.raises(GuardError):
        project_region(cat)
    region = project_region(cat, k_limit=4)
    assert region.k == 4


def test_region_vertices_scale_with_mu():
    cat = _simplex3()
    region = project_region(cat, [2] * 7)
    assert max(sum(v) for v in region.vertices) == F(8)
