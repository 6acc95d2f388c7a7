"""Exact linear programming over the rationals.

A dense two-phase simplex on `fractions.Fraction` for the one program shape
the library builds: max c.x over x >= 0, subject to `<=` and `=` rows whose
right-hand sides are nonnegative (server capacities and file demands).
Pivoting follows Bland's rule (smallest eligible index enters, smallest
basic index breaks ratio ties), which guarantees termination and makes every
solve deterministic: the same program always yields the same optimal basic
solution. Returned optima are therefore vertices of the feasible polyhedron.
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
    """status is 'optimal', 'infeasible' or 'unbounded'; value and assignment
    are set only when optimal."""

    status: str
    value: Optional[Fraction] = None
    assignment: Optional[tuple[Fraction, ...]] = None


class _Tableau:
    """Standard-form tableau: rows A|b with b >= 0, one basic column per row."""

    def __init__(self, program: LinearProgram) -> None:
        n = program.num_vars
        self.n_struct = n
        n_slack = sum(1 for _, rel, _ in program.rows if rel == LE)
        n_art = len(program.rows) - n_slack
        self.n_slack = n_slack
        self.n_art = n_art
        width = n + n_slack + n_art
        self.width = width
        self.rows: list[list[Fraction]] = []
        self.basis: list[int] = []
        slack_at = n
        art_at = n + n_slack
        zero = Fraction(0)
        for coeffs, rel, rhs in program.rows:
            row = coeffs + [zero] * (n_slack + n_art) + [rhs]
            if rel == LE:
                row[slack_at] = Fraction(1)
                self.basis.append(slack_at)
                slack_at += 1
            else:
                row[art_at] = Fraction(1)
                self.basis.append(art_at)
                art_at += 1
            self.rows.append(row)

    def _pivot(self, r: int, c: int) -> None:
        row = self.rows[r]
        inv = Fraction(1) / row[c]
        self.rows[r] = row = [v * inv for v in row]
        for i, other in enumerate(self.rows):
            if i != r and other[c]:
                f = other[c]
                self.rows[i] = [a - f * b for a, b in zip(other, row)]
        self.basis[r] = c

    def _reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        """Eliminate basic columns from a cost row (cost has width+1 cells)."""
        red = list(cost)
        for r, b in enumerate(self.basis):
            if red[b]:
                f = red[b]
                red = [a - f * v for a, v in zip(red, self.rows[r])]
        return red

    def _run(self, cost: list[Fraction], allowed: int) -> str:
        """Bland-rule simplex on columns [0, allowed); returns final status."""
        red = self._reduced_costs(cost)
        while True:
            enter = next((j for j in range(allowed) if red[j] > 0), None)
            if enter is None:
                return "optimal"
            best_r = -1
            best_ratio: Optional[Fraction] = None
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < self.basis[best_r])
                    ):
                        best_ratio = ratio
                        best_r = r
            if best_r < 0:
                return "unbounded"
            self._pivot(best_r, enter)
            f = red[enter]
            red = [a - f * v for a, v in zip(red, self.rows[best_r])]

    def phase1(self) -> bool:
        """Drive artificials to zero; False means the program is infeasible."""
        if self.n_art == 0:
            return True
        zero = Fraction(0)
        cost = [zero] * (self.width + 1)
        for j in range(self.n_struct + self.n_slack, self.width):
            cost[j] = Fraction(-1)
        status = self._run(cost, self.width)
        if status != "optimal":  # phase-1 objective is bounded above by 0
            raise RuntimeError(f"phase-1 LP is {status}")
        art_lo = self.n_struct + self.n_slack
        for r in range(len(self.rows)):
            if self.basis[r] >= art_lo and self.rows[r][-1]:
                return False
        # pivot surviving artificials out of the basis, dropping redundant rows
        keep: list[int] = []
        for r in range(len(self.rows)):
            if self.basis[r] < art_lo:
                keep.append(r)
                continue
            col = next(
                (j for j in range(art_lo) if self.rows[r][j]),
                None,
            )
            if col is None:
                continue  # all-zero over real columns: redundant constraint
            self._pivot(r, col)
            keep.append(r)
        kept = set(keep)
        self.rows = [row[:art_lo] + [row[-1]] for i, row in enumerate(self.rows) if i in kept]
        self.basis = [self.basis[i] for i in keep]
        self.width = art_lo
        self.n_art = 0
        return True

    def phase2(self, objective: list[Fraction]) -> str:
        zero = Fraction(0)
        cost = [zero] * (self.width + 1)
        cost[: self.n_struct] = objective
        return self._run(cost, self.width)

    def assignment(self) -> tuple[Fraction, ...]:
        x = [Fraction(0)] * self.n_struct
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                x[b] = self.rows[r][-1]
        return tuple(x)


def solve_max(program: LinearProgram) -> LPOutcome:
    """Maximize the objective; exact, deterministic, vertex-valued."""
    tab = _Tableau(program)
    if not tab.phase1():
        return LPOutcome("infeasible")
    status = tab.phase2(list(program.objective))
    if status != "optimal":
        return LPOutcome(status)
    x = tab.assignment()
    value = sum((c * v for c, v in zip(program.objective, x)), Fraction(0))
    return LPOutcome("optimal", value, x)


def feasible(program: LinearProgram) -> Optional[tuple[Fraction, ...]]:
    """A feasible point (a vertex), or None if the constraints are empty."""
    tab = _Tableau(program)
    if not tab.phase1():
        return None
    return tab.assignment()
