"""Generator matrices, recovery-set enumeration, and the binary simplex family."""

from __future__ import annotations

import json
import random

import pytest

import support
from servicerate.codes import (
    GeneratorMatrix,
    enumerate_recovery_sets,
    parse_generator_matrix,
    simplex_code,
)


def _servers(catalog, file):
    return [rs.servers for rs in catalog.per_file[file - 1]]


def _all_sets(catalog):
    return [rs for sets in catalog.per_file for rs in sets]


def test_matrix_validation():
    with pytest.raises(ValueError):
        GeneratorMatrix(2, [])
    with pytest.raises(ValueError):
        GeneratorMatrix(2, [[]])
    with pytest.raises(ValueError):
        GeneratorMatrix(2, [[1, 0], [1]])
    with pytest.raises(ValueError):
        GeneratorMatrix(2, [[True, False]])
    with pytest.raises(ValueError):
        GeneratorMatrix(2, [[1, 0.0]])


def test_matrix_accessors_are_one_based():
    g = GeneratorMatrix(3, [[1, 2, 0], [0, 1, 1]])
    assert g.rows[0] == (1, 2, 0)
    assert g.column(2) == (2, 1)
    assert g.k == 2 and g.n == 3


def test_json_round_trip():
    g = GeneratorMatrix(5, [[1, 4, 0], [2, 0, 3]])
    again = parse_generator_matrix(json.dumps(g.to_json_dict()))
    assert again == g
    with pytest.raises(ValueError):
        parse_generator_matrix('{"q": 4, "matrix": [[1]]}')
    with pytest.raises(ValueError):
        parse_generator_matrix('{"matrix": [[1]]}')
    with pytest.raises(ValueError):
        parse_generator_matrix("not json")


# hand-enumerated: columns of the k=3 simplex matrix are 1..7 in
# binary (LSB = row 1), so file i's sets are the singleton {2^(i-1)} plus the
# three pairs whose column values xor to 2^(i-1).
def test_simplex3_recovery_sets():
    cat = enumerate_recovery_sets(simplex_code(3))
    assert cat.counts == (4, 4, 4)
    assert _servers(cat, 1) == [(1,), (2, 3), (4, 5), (6, 7)]
    assert _servers(cat, 2) == [(2,), (1, 3), (4, 6), (5, 7)]
    assert _servers(cat, 3) == [(4,), (1, 5), (2, 6), (3, 7)]


def test_ordering_singletons_then_pairs_lex():
    cat = enumerate_recovery_sets(simplex_code(3))
    for file in (1, 2, 3):
        sets = cat.per_file[file - 1]
        sizes = [rs.size for rs in sets]
        assert sizes == sorted(sizes)
        pairs = [rs.servers for rs in sets if rs.size == 2]
        assert pairs == sorted(pairs)


def test_zero_columns_never_appear():
    g = GeneratorMatrix(2, [[1, 0, 1], [0, 0, 1]])
    cat = enumerate_recovery_sets(g)
    for rs in _all_sets(cat):
        assert 2 not in rs.servers


def _wide_codes() -> list[GeneratorMatrix]:
    # the corpus is binary and ternary; these exercise inverses and scans at larger q
    rng = random.Random(31)
    return [support.random_code(rng, qs=(5, 7, 11, 13), max_n=5) for _ in range(30)]


def test_coefficients_recompute_to_unit_vectors():
    for g in support.corpus(40) + _wide_codes():
        cat = enumerate_recovery_sets(g)
        for rs in _all_sets(cat):
            assert all(type(c) is int and 0 < c < g.q for c in rs.coefficients)
            assert support.evaluate(g, rs) == support.unit_vector(g.k, rs.file)


def test_one_set_per_server_subset():
    # columns 1 and 2 are parallel over GF(5): the pair {1,2} solves for
    # file 1 with three distinct coefficient choices, but only one entry stays
    g = GeneratorMatrix(5, [[1, 2, 0], [0, 0, 1]])
    cat = enumerate_recovery_sets(g)
    assert _servers(cat, 1) == [(1,), (2,), (1, 2)]
    # the scan runs a, then alpha, then beta upward: 2*(1,0) + 2*(2,0) = e_1
    assert [rs.coefficients for rs in cat.per_file[0]] == [(1,), (3,), (2, 2)]
    for file in (1, 2):
        seen = [rs.servers for rs in cat.per_file[file - 1]]
        assert len(seen) == len(set(seen))


def test_enumeration_matches_brute_force_on_corpus():
    for g in support.corpus(120) + _wide_codes():
        cat = enumerate_recovery_sets(g)
        lib = {(rs.file, rs.servers) for rs in _all_sets(cat)}
        assert lib == support.brute_force_recovery_sets(g)


def test_simplex_matrix_columns_count_binary():
    for k in (2, 3, 4):
        g = simplex_code(k)
        assert (g.k, g.n) == (k, 2**k - 1)
        for j in range(1, g.n + 1):
            bits = sum(e << r for r, e in enumerate(g.column(j)))
            assert bits == j
    with pytest.raises(ValueError):
        simplex_code(1)
    with pytest.raises(ValueError):
        simplex_code(11)


def test_simplex_each_file_has_half_order_sets():
    # singleton at the systematic column plus a perfect pairing of
    # the remaining 2^k - 2 columns: 2^(k-1) sets per file, all disjoint
    for k in (2, 3, 4):
        cat = enumerate_recovery_sets(simplex_code(k))
        for file in range(1, k + 1):
            sets = cat.per_file[file - 1]
            assert len(sets) == 2 ** (k - 1)
            covered = [s for rs in sets for s in rs.servers]
            assert sorted(covered) == list(range(1, 2**k))
