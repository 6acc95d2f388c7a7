"""Checks of each CLI answer against the independent oracle.

`check` returns None for a right answer and a short reason otherwise. An
answer that cannot be verified counts as wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from oracle import CodeFacts
from workloads import Query

EXIT_OK, EXIT_INFEASIBLE = 0, 3


class Wrong(Exception):
    pass


def expect(cond: bool, why: str) -> None:
    if not cond:
        raise Wrong(why)


def check(query: Query, facts: CodeFacts, rc: object, out: str) -> Optional[str]:
    try:
        want_rc = EXIT_OK
        if query.expect_member is False or (query.t is not None and query.t > 2 ** (query.simplex_k - 1)):
            want_rc = EXIT_INFEASIBLE
        expect(rc == want_rc, f"exit code {rc!r}, expected {want_rc}")
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            raise Wrong("stdout is not JSON") from None
        CHECKS[query.command](query, facts, doc)
    except Wrong as exc:
        return f"{query.command} on {query.code}: {exc}"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"{query.command} on {query.code}: malformed answer ({type(exc).__name__}: {exc})"
    return None


def _fr(values: Sequence[str]) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _check_allocation(facts: CodeFacts, alloc: list[list[str]], lam: Sequence[Fraction],
                      cap: Fraction, integral: bool = False) -> None:
    """Shape follows the catalog, entries are nonnegative, row sums equal
    lam, and no server carries more than cap."""
    expect([len(r) for r in alloc] == facts.counts, "allocation shape differs from the recovery sets")
    load = [Fraction(0)] * (facts.n + 1)
    for f, row in enumerate(alloc):
        vals = _fr(row)
        expect(all(v >= 0 for v in vals), "negative allocation entry")
        if integral:
            expect(all(v in (0, 1) for v in vals), "integral allocation entry is not 0 or 1")
        expect(sum(vals, Fraction(0)) == lam[f], f"file {f + 1} is served {sum(vals)}, not {lam[f]}")
        for v, servers in zip(vals, facts.sets[f]):
            for s in servers:
                load[s] += v
    expect(max(load) <= cap, f"a server carries {max(load)} > {cap}")


def _capacity(query: Query, facts: CodeFacts, doc: dict) -> None:
    mu = query.mu if query.mu is not None else Fraction(1)
    value = Fraction(doc["capacity"])
    expect(value == mu * facts.fractional_matching_number,
           f"capacity {value} != {mu} * m_f = {mu * facts.fractional_matching_number}")
    maximizer = _fr(doc["maximizer"])
    expect(len(maximizer) == facts.k and sum(maximizer) == value, "maximizer does not sum to the capacity")
    _check_allocation(facts, doc["allocation"], maximizer, mu)


def _member(query: Query, facts: CodeFacts, doc: dict) -> None:
    lam = query.lam
    expect(doc["lambda"] == [str(x) for x in lam], "lambda echoed wrongly")
    expect(doc["integral"] is query.integral, "integral flag echoed wrongly")
    expect(doc["member"] is query.expect_member, f"member {doc['member']}, expected {query.expect_member}")
    if query.expect_member:
        _check_allocation(facts, doc["allocation"], lam, Fraction(1), query.integral)
    else:
        # a refusal is only trusted where the total exceeds m_f
        expect(sum(lam) > facts.fractional_matching_number, "refusal below m_f is unverifiable")
        expect("allocation" not in doc, "refusal carries an allocation")


def _bounds(query: Query, facts: CodeFacts, doc: dict) -> None:
    m, mf, v = Fraction(doc["matching"]), Fraction(doc["fractional_matching"]), Fraction(doc["vertex_cover"])
    expect(m == facts.matching_number, f"matching {m} != {facts.matching_number}")
    expect(mf == facts.fractional_matching_number, f"m_f {mf} != {facts.fractional_matching_number}")
    expect(m <= mf <= v, f"bounds out of order: {m}, {mf}, {v}")
    if facts.bipartite_sides is not None:
        expect(v == m, f"bipartite graph but cover {v} != matching {m}")


def _pir(query: Query, facts: CodeFacts, doc: dict) -> None:
    expect(doc["per_file"] == facts.per_file_matching, f"per-file PIR {doc['per_file']} != {facts.per_file_matching}")
    expect(doc["t_pir"] == min(facts.per_file_matching), "t_pir is not the per-file minimum")


def _graph(query: Query, facts: CodeFacts, doc: dict) -> None:
    vertices = [{"id": j, "label": str(j), "capacity": "1"} for j in range(1, facts.n + 1)]
    vertices += [{"id": j, "label": "0", "capacity": "1"} for j in range(facts.n + 1, facts.nvert + 1)]
    edges = [{"u": u, "v": v, "file": f} for u, v, f in facts.edges]
    expect(doc == {"vertices": vertices, "edges": edges}, "graph differs from the recovery sets")


def demand_vectors(k: int, t: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors summing to t, (t, 0, ..., 0) first."""
    if k == 1:
        yield (t,)
        return
    for first in range(t, -1, -1):
        for rest in demand_vectors(k - 1, t - first):
            yield (first,) + rest


def expected_batch(facts: CodeFacts, simplex_k: Optional[int]) -> dict:
    """Walk t = 1, 2, ... to the first failure or floor(m_f) + 1. Simplex
    codes serve every t <= 2^(k-1) and nothing above their capacity."""
    mf = facts.fractional_matching_number
    verdicts, t_max = [], 0
    for t in range(1, mf.numerator // mf.denominator + 2):
        if simplex_k is not None:
            failure = None if t <= 2 ** (simplex_k - 1) else (t,) + (0,) * (facts.k - 1)
        else:
            failure = next((lam for lam in demand_vectors(facts.k, t) if not facts.integral_feasible(lam)), None)
        verdicts.append({"t": t, "all_served": failure is None,
                         "first_failure": None if failure is None else list(failure)})
        if failure is not None:
            break
        t_max = t
    return {"t_max": t_max, "verdicts": verdicts}


def _batch(query: Query, facts: CodeFacts, doc: dict) -> None:
    if query.t is not None:
        served = query.t <= 2 ** (query.simplex_k - 1)
        failure = None if served else [query.t] + [0] * (facts.k - 1)
        expect(doc == {"t": query.t, "all_served": served, "first_failure": failure},
               f"batch t={query.t} verdict differs")
        return
    got = {"t_max": doc["t_max"], "verdicts": doc["verdicts"]}
    expect(isinstance(doc["criterion"], str), "batch criterion missing")
    expect(got == expected_batch(facts, query.simplex_k), f"batch report differs (t_max {doc['t_max']})")


def _analyze(query: Query, facts: CodeFacts, doc: dict) -> None:
    expect(doc["code"] == {"q": facts.q, "k": facts.k, "n": facts.n, "recovery_counts": facts.counts},
           "code summary differs")
    sides = facts.bipartite_sides
    expect(doc["graph"] == {"vertices": facts.nvert, "real": facts.n, "dummies": facts.nvert - facts.n,
                            "edges": len(facts.edges), "bipartite": sides is not None, "sides": sides},
           "graph summary differs")
    _bounds(query, facts, doc["bounds"])
    cap = doc["capacity"]
    _capacity(query, facts, {"capacity": cap["value"], "maximizer": cap["maximizer"],
                             "allocation": cap["allocation"]})
    expect(doc["mu"] == ["1"] * facts.n, "capacities echoed wrongly")
    _batch(query, facts, doc["batch"])
    _pir(query, facts, doc["pir"])


def _region(query: Query, facts: CodeFacts, doc: dict) -> None:
    expect(doc["k"] == facts.k, "wrong k")
    vertices = [_fr(v) for v in doc["vertices"]]
    halfspaces = [(_fr(h["coeffs"]), Fraction(h["rhs"])) for h in doc["halfspaces"]]
    expect(tuple([Fraction(0)] * facts.k) in map(tuple, vertices), "0 is not a vertex")
    for v in vertices:
        expect(all(sum(c * x for c, x in zip(cs, v)) <= rhs for cs, rhs in halfspaces),
               "a vertex violates a half-space")
    for i in range(facts.k):
        top = max(v[i] for v in vertices)
        expect(top == facts.per_file_fractional[i], f"axis {i + 1} reaches {top}, not {facts.per_file_fractional[i]}")
    top = max(sum(v) for v in vertices)
    expect(top == facts.fractional_matching_number, f"max total {top} != m_f {facts.fractional_matching_number}")


CHECKS = {"capacity": _capacity, "member": _member, "bounds": _bounds, "pir": _pir,
          "graph": _graph, "batch": _batch, "analyze": _analyze, "region": _region}
