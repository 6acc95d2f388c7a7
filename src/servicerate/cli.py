"""Command-line front end. Every subcommand prints one JSON document to
stdout (rationals as strings like "4" or "3/2"); exit code 0 on success,
2 on usage or input errors, 3 on infeasible answers and size guards."""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import batchpir, codes, graphrep, matching, region
from .errors import GuardError

__all__ = ["main", "entry"]

EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE = 0, 2, 3

# CPython's default int digit limit: no rational past 10**4300 could be printed.
EXPONENT_CAP = 4300
_PRINTABLE_BELOW = 10**EXPONENT_CAP
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


def _digits(v: int) -> int:
    """Decimal digits of v > 0, counted without str(), which refuses them."""
    d = (v.bit_length() - 1) * 3010 // 10000  # 10**d <= v, as 0.3010 < log10(2)
    while 10**d <= v:
        d += 1
    return d


def _fmt(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:  # an int of more than EXPONENT_CAP digits
        big = max(abs(x.numerator), x.denominator)
        raise GuardError(
            f"an answer has a numerator or denominator of {_digits(big)} digits, "
            f"past the limit of {EXPONENT_CAP} digits for printing"
        ) from None


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _note(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "verbose", False):
        print(text, file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_catalog(args: argparse.Namespace) -> codes.RecoverySetCatalog:
    matrix = codes.parse_generator_matrix(_read_text(args.code))
    return codes.enumerate_recovery_sets(matrix)


def _parse_csv_rationals(text: str, what: str) -> list[Fraction]:
    tokens = [tok.strip() for tok in text.split(",")]
    for tok in tokens:
        # refused before Fraction builds 10**|exponent|, which takes seconds to hours
        match = _EXPONENT.search(tok)
        if match is None:
            continue
        digits = match.group(1).lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > len(str(EXPONENT_CAP)) or int(digits or "0") > EXPONENT_CAP:
            raise ValueError(
                f"cannot parse {what} {text!r}: decimal exponent {match.group(1)} "
                f"exceeds the cap of {EXPONENT_CAP} in magnitude"
            )
    try:
        values = [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}") from exc
    for tok, x in zip(tokens, values):
        if abs(x.numerator) >= _PRINTABLE_BELOW or x.denominator >= _PRINTABLE_BELOW:
            raise ValueError(
                f"cannot parse {what} {text!r}: {tok!r} has a numerator or denominator "
                f"of more than {EXPONENT_CAP} digits, the limit for printing an integer"
            )
    return values


def _integers(values: list[Fraction], what: str) -> list[int]:
    out = []
    for frac in values:
        if frac.denominator != 1:
            raise ValueError(f"{what} entries must be integers, got {frac}")
        out.append(int(frac))
    return out


def _mu(args: argparse.Namespace) -> Optional[list[Fraction]]:
    if getattr(args, "mu", None) is None:
        return None
    return _parse_csv_rationals(args.mu, "--mu")


def _allocation_json(alloc: region.Allocation) -> list[list[str]]:
    return [[_fmt(v) for v in row] for row in alloc.per_file]


def _code_summary(catalog: codes.RecoverySetCatalog) -> dict:
    return {
        "q": catalog.matrix.q,
        "k": catalog.k,
        "n": catalog.n,
        "recovery_counts": list(catalog.counts),
    }


def _graph_summary(graph: graphrep.ServiceGraph) -> dict:
    bip = graphrep.is_bipartite(graph)
    return {
        "vertices": graph.vertex_count,
        "real": graph.n_real,
        "dummies": graph.dummy_count,
        "edges": graph.edge_count,
        "bipartite": bip is not None,
        "sides": None if bip is None else sorted([len(bip.side_a), len(bip.side_b)]),
    }


def _bounds_payload(graph: graphrep.ServiceGraph) -> dict:
    m = matching.max_matching(graph).size
    v = matching.min_vertex_cover(graph).size
    return {
        "matching": _fmt(Fraction(m)),
        "fractional_matching": _fmt(matching.fractional_matching_oracle(graph)),
        "vertex_cover": _fmt(Fraction(v)),
    }


def _cmd_analyze(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    mu = _mu(args)
    graph = graphrep.build_graph(catalog)  # bounds live on the unit graph
    value, maximizer, allocation = region.capacity(catalog, mu, graph if mu is None else None)
    payload = {
        "code": _code_summary(catalog),
        "graph": _graph_summary(graph),
        "bounds": _bounds_payload(graph),
        "capacity": {
            "value": _fmt(value),
            "maximizer": [_fmt(x) for x in maximizer],
            "allocation": _allocation_json(allocation),
        },
        "mu": [_fmt(c) for c in (mu if mu is not None else [Fraction(1)] * catalog.n)],
    }
    if args.with_batch:
        payload["batch"] = _batch_payload(batchpir.batch_t_max(catalog))
    if args.with_pir:
        report = batchpir.pir_t(catalog)
        payload["pir"] = {"t_pir": report.t_pir, "per_file": list(report.per_file)}
    _emit(payload)
    _note(
        args,
        f"[{catalog.n},{catalog.k}]_{catalog.matrix.q} code: "
        f"capacity {value}, bipartite {payload['graph']['bipartite']}",
    )
    return EXIT_OK


def _cmd_capacity(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    value, maximizer, allocation = region.capacity(catalog, _mu(args))
    _emit(
        {
            "capacity": _fmt(value),
            "maximizer": [_fmt(x) for x in maximizer],
            "allocation": _allocation_json(allocation),
        }
    )
    _note(args, f"capacity {value}")
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    if args.integral and args.mu is not None:
        raise ValueError(
            "--mu cannot be combined with --integral: integral membership is unit-capacity only"
        )
    catalog = _load_catalog(args)
    lam = _parse_csv_rationals(args.lam, "--lambda")
    if args.integral:
        witness = region.integral_membership(catalog, _integers(lam, "--lambda"))
    else:
        witness = region.membership(catalog, lam, _mu(args))
    payload: dict = {
        "member": witness is not None,
        "lambda": [_fmt(x) for x in lam],
        "integral": bool(args.integral),
    }
    if witness is not None:
        payload["allocation"] = _allocation_json(witness)
    _emit(payload)
    verdict = "servable" if witness is not None else "not servable"
    _note(args, f"demand ({args.lam}) is {verdict}")
    return EXIT_OK if witness is not None else EXIT_INFEASIBLE


def _cmd_region(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    hrep = region.project_region(catalog, _mu(args))
    _emit(
        {
            "k": hrep.k,
            "halfspaces": [
                {"coeffs": [_fmt(c) for c in h.coeffs], "rhs": _fmt(h.rhs)}
                for h in hrep.halfspaces
            ],
            "nonnegativity_implied": True,
            "vertices": [[_fmt(x) for x in v] for v in hrep.vertices],
        }
    )
    _note(
        args,
        f"{len(hrep.halfspaces)} half-spaces, {len(hrep.vertices)} extreme points",
    )
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    payload = _bounds_payload(graphrep.build_graph(catalog))
    _emit(payload)
    _note(
        args,
        f"matching {payload['matching']}, fractional "
        f"{payload['fractional_matching']}, cover {payload['vertex_cover']}",
    )
    return EXIT_OK


def _batch_payload(report: batchpir.BatchReport) -> dict:
    return {
        "t_max": report.t_max,
        "criterion": batchpir.BATCH_CRITERION,
        "verdicts": [
            {
                "t": v.t,
                "all_served": v.all_served,
                "first_failure": None if v.first_failure is None else list(v.first_failure),
            }
            for v in report.verdicts
        ],
    }


def _cmd_batch(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    if args.t is not None:
        ok, failing = batchpir.is_batch_t(catalog, args.t)
        _emit(
            {
                "t": args.t,
                "all_served": ok,
                "first_failure": None if failing is None else list(failing),
            }
        )
        _note(args, f"t = {args.t}: {'served' if ok else f'fails at {failing}'}")
        return EXIT_OK if ok else EXIT_INFEASIBLE
    report = batchpir.batch_t_max(catalog)
    _emit(_batch_payload(report))
    _note(args, f"t_max {report.t_max}")
    return EXIT_OK


def _cmd_pir(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    report = batchpir.pir_t(catalog)
    _emit({"t_pir": report.t_pir, "per_file": list(report.per_file)})
    _note(args, f"t_pir {report.t_pir}")
    return EXIT_OK


def _cmd_alg1(args: argparse.Namespace) -> int:
    lam = _integers(_parse_csv_rationals(args.lam, "--lambda"), "--lambda")
    graph = graphrep.build_graph(codes.enumerate_recovery_sets(codes.simplex_code(3)))
    chosen = batchpir.algorithm1(lam, graph)
    edges = []
    for idx in chosen.edges:
        e = graph.edges[idx]
        edges.append(
            {
                "u": e.u,
                "v": e.v,
                "file": e.file,
                "servers": list(graph.recovery_set_of(idx).servers),
            }
        )
    _emit({"lambda": lam, "matching": edges})
    _note(args, f"size-4 matching serving {tuple(lam)}")
    return EXIT_OK


def _cmd_simplex(args: argparse.Namespace) -> int:
    matrix = codes.simplex_code(args.k)
    text = json.dumps(matrix.to_json_dict(), indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _note(args, f"[{matrix.n},{matrix.k}]_2 simplex code")
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
    graph = graphrep.build_graph(catalog, _mu(args))
    if args.dot:
        sys.stdout.write(graphrep.export_dot(graph))
    else:
        _emit(graph.to_json_dict())
    _note(args, f"{graph.vertex_count} vertices, {graph.edge_count} edges")
    return EXIT_OK


def _add_code_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--code", required=True, help='code JSON path, or "-" for stdin')


def _add_mu_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mu", help="per-server capacities, comma-separated rationals")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="servicerate",
        description="Exact service-rate-region analysis of linear storage codes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--verbose", action="store_true", help="one-line summary on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full report: code, graph, bounds, capacity")
    _add_code_arg(p)
    _add_mu_arg(p)
    p.add_argument("--with-batch", action="store_true", help="include batch report")
    p.add_argument("--with-pir", action="store_true", help="include PIR report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("capacity", parents=[common], help="maximum total demand rate")
    _add_code_arg(p)
    _add_mu_arg(p)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("member", parents=[common], help="demand vector membership with witness")
    _add_code_arg(p)
    _add_mu_arg(p)
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated demands")
    p.add_argument("--integral", action="store_true", help="whole recovery sets only")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("region", parents=[common], help="demand-space half-spaces and extreme points")
    _add_code_arg(p)
    _add_mu_arg(p)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("bounds", parents=[common], help="matching, fractional matching, vertex cover")
    _add_code_arg(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("batch", parents=[common], help="verify batch parameters on the integral region")
    _add_code_arg(p)
    p.add_argument("--t", type=int, help="check a single t instead of walking up")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("pir", parents=[common], help="disjoint recovery sets per file")
    _add_code_arg(p)
    p.set_defaults(func=_cmd_pir)

    p = sub.add_parser("alg1", parents=[common], help="integral allocation on the dimension-3 simplex graph")
    p.add_argument("--lambda", dest="lam", required=True, help="three demands summing to 4")
    p.set_defaults(func=_cmd_alg1)

    p = sub.add_parser("simplex", parents=[common], help="emit a binary simplex code as JSON")
    p.add_argument("--k", type=int, required=True, help="dimension, 2..10")
    p.add_argument("--out", default="-", help='output path, or "-" for stdout')
    p.set_defaults(func=_cmd_simplex)

    p = sub.add_parser("graph", parents=[common], help="graph representation as JSON or DOT")
    _add_code_arg(p)
    _add_mu_arg(p)
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead")
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
