"""GF(q) as the code layer holds it: a prime modulus below 2**31 and matrix
entries stored as ints reduced into [0, q)."""

from __future__ import annotations

import json

import pytest

from servicerate.codes import GeneratorMatrix, enumerate_recovery_sets, parse_generator_matrix


def test_prime_validation():
    for q in (2, 3, 5, 7, 31, 2**31 - 1):
        assert GeneratorMatrix(q, [[1]]).q == q
        assert parse_generator_matrix(json.dumps({"q": q, "matrix": [[1]]})).q == q
    refusals = [(bad, "q must be prime") for bad in (0, 1, 4, 6, 9, 15, -7)]
    refusals += [(bad, "at or above the 2\\*\\*31 cap") for bad in (2**31, 2**31 + 11)]
    refusals += [(bad, "field modulus must be an integer") for bad in (True, 7.0, "7", None)]
    for bad, message in refusals:
        with pytest.raises(ValueError, match=message):
            GeneratorMatrix(bad, [[1]])
        with pytest.raises(ValueError, match=message):
            parse_generator_matrix(json.dumps({"q": bad, "matrix": [[1]]}))


def test_element_construction_reduces_mod_q():
    g = GeneratorMatrix(5, [[7, -1, 0, 1, 5], [4, 10, -6, 12, 3]])
    assert g.rows == ((2, 4, 0, 1, 0), (4, 0, 4, 2, 3))
    assert all(type(e) is int for r in g.rows for e in r)
    assert g.to_json_dict() == {"q": 5, "matrix": [[2, 4, 0, 1, 0], [4, 0, 4, 2, 3]]}
    assert parse_generator_matrix('{"q": 5, "matrix": [[7, -1]]}').rows == ((2, 4),)


def test_equality_and_hash():
    assert GeneratorMatrix(7, [[3, 1]]) == GeneratorMatrix(7, [[10, -6]])
    assert GeneratorMatrix(7, [[3, 1]]) != GeneratorMatrix(7, [[4, 1]])
    assert GeneratorMatrix(7, [[3, 1]]) != GeneratorMatrix(11, [[3, 1]])
    assert hash(GeneratorMatrix(7, [[3]])) == hash(GeneratorMatrix(7, [[10]]))
    assert len({GeneratorMatrix(7, [[i]]) for i in range(14)}) == 7


def test_inverse():
    # a lone nonzero entry x recovers the file with coefficient x^-1 mod q
    for q in (2, 3, 5, 11):
        for x in range(1, q):
            (rs,) = enumerate_recovery_sets(GeneratorMatrix(q, [[x]])).per_file[0]
            assert rs.coefficients[0] * x % q == 1
    # zero has no inverse, so a zero entry recovers nothing
    assert enumerate_recovery_sets(GeneratorMatrix(7, [[0]])).counts == (0,)
