"""Exact linear programming over the rationals.

A dense simplex on `fractions.Fraction` for the one program shape the library
builds: x >= 0 under `<=` and `=` rows whose right-hand sides are nonnegative
(server capacities and file demands). Every call is one simplex run from the
slack basis, which is feasible because b >= 0. `solve_max` takes `<=` rows
only and maximizes the objective. `feasible` is phase 1 read as a `<=`
program: each `=` row gets a slack like a `<=` row, the run maximizes the sum
of the `=` rows' left-hand sides, and the rows can be met exactly when no
`=`-row slack is left positive. Pivoting follows Bland's rule (smallest
eligible index enters, smallest basic index breaks ratio ties), which
guarantees termination and makes every solve deterministic: the same program
always yields the same basic solution, so returned points are vertices of
the feasible polyhedron.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

__all__ = ["LE", "EQ", "LinearProgram", "LPOutcome", "solve_max", "feasible"]

LE, EQ = "<=", "="

Number = int | Fraction


class LinearProgram:
    """max c.x subject to x >= 0 and rows A_i . x rel b_i, rel in (LE, EQ),
    b_i >= 0."""

    def __init__(self, num_vars: int, objective: Sequence[Number] = ()) -> None:
        if num_vars < 0:
            raise ValueError("number of variables must be nonnegative")
        self.num_vars = num_vars
        if objective:
            self.objective = self._vector(objective)
        else:
            self.objective = [Fraction(0)] * num_vars
        self.rows: list[tuple[list[Fraction], str, Fraction]] = []

    def _vector(self, coeffs: Sequence[Number]) -> list[Fraction]:
        if len(coeffs) != self.num_vars:
            raise ValueError(
                f"dimension mismatch: expected {self.num_vars} coefficients, "
                f"got {len(coeffs)}"
            )
        return [Fraction(c) for c in coeffs]

    def add_constraint(self, coeffs: Sequence[Number], relation: str, rhs: Number) -> None:
        if relation not in (LE, EQ):
            raise ValueError(f"unknown relation {relation!r}: rows are {LE!r} or {EQ!r}")
        bound = Fraction(rhs)
        if bound < 0:
            raise ValueError(f"right-hand side {bound} is negative")
        self.rows.append((self._vector(coeffs), relation, bound))


class LPOutcome(NamedTuple):
    """status is 'optimal' or 'unbounded' (a `<=` program over x >= 0 with
    b >= 0 always has the feasible point 0); value and assignment are set
    only when optimal."""

    status: str
    value: Optional[Fraction] = None
    assignment: Optional[tuple[Fraction, ...]] = None


def _simplex(program: LinearProgram, cost: list[Fraction]) -> Optional[list[Fraction]]:
    """Maximize cost.x over the program's rows, each read as `<=`, by a
    Bland-rule simplex from the slack basis. Slack columns follow the n
    structural ones: those of `<=` rows, then those of `=` rows, each group in
    row order. Returns the final value of every column, or None when
    unbounded. Slacks cost 0, so the cost row starts reduced."""
    n, m = program.num_vars, len(program.rows)
    zero, one = Fraction(0), Fraction(1)
    slack = {LE: n, EQ: n + sum(rel == LE for _, rel, _ in program.rows)}
    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for coeffs, rel, rhs in program.rows:
        row = coeffs + [zero] * m + [rhs]
        row[slack[rel]] = one
        basis.append(slack[rel])
        slack[rel] += 1
        rows.append(row)
    red = cost + [zero] * m
    while True:
        enter = next((j for j, v in enumerate(red) if v > 0), None)
        if enter is None:
            values = [zero] * (n + m)
            for b, row in zip(basis, rows):
                values[b] = row[-1]
            return values
        best_r = -1
        best_ratio: Optional[Fraction] = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_r])
                ):
                    best_ratio = ratio
                    best_r = r
        if best_r < 0:
            return None
        inv = one / rows[best_r][enter]
        rows[best_r] = pivot = [v * inv for v in rows[best_r]]
        for i, other in enumerate(rows):
            f = other[enter]
            if i != best_r and f:
                rows[i] = [a - f * b for a, b in zip(other, pivot)]
        basis[best_r] = enter
        f = red[enter]
        red = [a - f * v for a, v in zip(red, pivot)]


def solve_max(program: LinearProgram) -> LPOutcome:
    """Maximize the objective over `<=` rows; exact, deterministic,
    vertex-valued."""
    if any(rel == EQ for _, rel, _ in program.rows):
        raise ValueError("solve_max takes '<=' rows only; use feasible for '=' rows")
    values = _simplex(program, program.objective)
    if values is None:
        return LPOutcome("unbounded")
    x = tuple(values[: program.num_vars])
    value = sum((c * v for c, v in zip(program.objective, x)), Fraction(0))
    return LPOutcome("optimal", value, x)


def feasible(program: LinearProgram) -> Optional[tuple[Fraction, ...]]:
    """A feasible point (a vertex), or None if the constraints are empty."""
    n = program.num_vars
    cost = [Fraction(0)] * n
    for coeffs, rel, _ in program.rows:
        if rel == EQ:
            cost = [a + b for a, b in zip(cost, coeffs)]
    values = _simplex(program, cost)
    if values is None:  # the sum of the `=` rows is capped by their rhs
        raise RuntimeError("feasibility LP is unbounded")
    if any(values[n + sum(rel == LE for _, rel, _ in program.rows) :]):
        return None  # an `=` row falls short of its rhs
    return tuple(values[:n])
