"""Exact simplex solver against a vertex-enumeration oracle and fixed cases."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import support
from servicerate.lp import EQ, LE, LinearProgram, feasible, solve_max

F = Fraction


def test_simple_box():
    p = LinearProgram(2, [3, 5])
    p.add_constraint([1, 0], LE, 4)
    p.add_constraint([0, 1], LE, 6)
    p.add_constraint([3, 2], LE, 18)
    out = solve_max(p)
    assert out.status == "optimal"
    assert out.value == 36
    assert out.assignment == (F(2), F(6))


def test_fractional_optimum():
    # max x+y s.t. 2x+y <= 3, x+2y <= 3 -> (1,1) is the corner
    p = LinearProgram(2, [1, 1])
    p.add_constraint([2, 1], LE, 3)
    p.add_constraint([1, 2], LE, 3)
    out = solve_max(p)
    assert (out.value, out.assignment) == (F(2), (F(1), F(1)))
    # tilt the objective: optimum moves to (0, 3/2)
    p2 = LinearProgram(2, [1, 3])
    p2.add_constraint([2, 1], LE, 3)
    p2.add_constraint([1, 2], LE, 3)
    assert solve_max(p2).value == F(9, 2)


def _holds(p: LinearProgram, x) -> bool:
    """Every row of p holds exactly at x >= 0."""
    if len(x) != p.num_vars or min(x, default=0) < 0:
        return False
    for coeffs, rel, rhs in p.rows:
        lhs = sum((c * v for c, v in zip(coeffs, x)), F(0))
        if not ((rel == LE and lhs <= rhs) or (rel == EQ and lhs == rhs)):
            return False
    return True


def test_equality_and_le_rows():
    p = LinearProgram(3, [1, 2, 3])
    p.add_constraint([1, 1, 1], EQ, 10)
    p.add_constraint([0, 0, 1], LE, 5)
    point = feasible(p)
    assert point == (F(10), F(0), F(0))  # x1 enters first under Bland's rule
    assert _holds(p, point)
    with pytest.raises(ValueError, match="use feasible"):
        solve_max(p)


def test_infeasible():
    p = LinearProgram(1, [1])
    p.add_constraint([1], EQ, 5)
    p.add_constraint([1], LE, 3)
    assert feasible(p) is None


def test_unbounded():
    p = LinearProgram(2, [1, 0])
    p.add_constraint([0, 1], LE, 1)
    out = solve_max(p)
    assert out.status == "unbounded"
    point = feasible(p)
    assert point is not None and point[1] <= 1


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    p = LinearProgram(4, [F(3, 4), -150, F(1, 50), -6])
    p.add_constraint([F(1, 4), -60, F(-1, 25), 9], LE, 0)
    p.add_constraint([F(1, 2), -90, F(-1, 50), 3], LE, 0)
    p.add_constraint([0, 0, 1, 0], LE, 1)
    out = solve_max(p)
    assert out.status == "optimal"
    assert out.value == F(1, 20)


def test_zero_variables():
    p = LinearProgram(0, [])
    out = solve_max(p)
    assert out.status == "optimal" and out.value == 0
    # rows over no variables read 0 rel rhs: constant truths or falsehoods
    rows_ok = [(LE, 0), (LE, 1), (EQ, 0)]
    rows_bad = [(EQ, 2)]
    cases = [([r], True) for r in rows_ok] + [([r], False) for r in rows_bad]
    cases += [(rows_ok, True), (rows_ok + rows_bad, False), (rows_bad + rows_ok, False)]
    for rows, ok in cases:
        p = LinearProgram(0, [])
        le = LinearProgram(0, [])
        for rel, rhs in rows:
            p.add_constraint([], rel, rhs)
            if rel == LE:
                le.add_constraint([], rel, rhs)
        out = solve_max(le)
        assert (out.status, out.value, out.assignment) == ("optimal", 0, ()), rows
        assert feasible(p) == (() if ok else None), rows


def test_redundant_equalities_handled():
    # second row is the first doubled: its slack stays basic at 0
    p = LinearProgram(2, [1, 1])
    p.add_constraint([1, 1], EQ, 4)
    p.add_constraint([2, 2], EQ, 8)
    point = feasible(p)
    assert point == (F(4), F(0))
    assert _holds(p, point)
    with pytest.raises(ValueError, match="use feasible"):
        solve_max(p)


def test_bad_inputs():
    p = LinearProgram(2, [1, 1])
    with pytest.raises(ValueError):
        p.add_constraint([1], LE, 1)
    for relation in ("<", ">="):
        with pytest.raises(ValueError, match="unknown relation"):
            p.add_constraint([1, 1], relation, 1)
    with pytest.raises(ValueError, match="negative"):
        p.add_constraint([1, 1], LE, F(-1, 2))
    assert p.rows == []


def _random_program(rng: random.Random, relations: tuple[str, ...]) -> LinearProgram:
    n = rng.randint(1, 4)
    p = LinearProgram(n, [F(rng.randint(-4, 4)) for _ in range(n)])
    for _ in range(rng.randint(1, 4)):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
        rel = rng.choice(relations)
        p.add_constraint(coeffs, rel, F(rng.randint(0, 6)))
    for j in range(n):
        # keep everything bounded so the oracle's vertex enumeration is exact
        unit = [F(int(i == j)) for i in range(n)]
        p.add_constraint(unit, LE, F(rng.randint(1, 8)))
    return p


def test_random_programs_match_vertex_enumeration():
    rng = random.Random(424242)
    solved = 0
    for _ in range(160):
        # `<=` rows only: 0 is feasible, and the oracle gives the optimum
        p = _random_program(rng, (LE,))
        out = solve_max(p)
        status, value = support.brute_force_lp_max(p)
        assert (out.status, out.value) == (status, value)
        assert _holds(p, out.assignment)  # every row holds exactly
        # mixed rows: feasible finds a point exactly when the oracle does
        p = _random_program(rng, (LE, EQ))
        point = feasible(p)
        status, _ = support.brute_force_lp_max(p)
        assert (point is None) == (status == "infeasible")
        if point is not None:
            assert _holds(p, point)
            solved += 1
    assert solved >= 60  # most random instances should be feasible


def test_solution_is_exact_not_float():
    p = LinearProgram(2, [1, 1])
    p.add_constraint([3, 1], LE, 1)
    p.add_constraint([1, 3], LE, 1)
    out = solve_max(p)
    assert out.value == F(1, 2)
    assert all(isinstance(v, Fraction) for v in out.assignment)
