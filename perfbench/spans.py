"""Spans around the library's public functions, recorded from outside.

`Tracer.install` wraps each traced function once and points every module
attribute that names it at the wrapper, so calls through `cli`'s module
references and through by-name imports (`region.solve_max`,
`batchpir.max_matching`, ...) are all seen. Spans (name, start, end, parent,
query id, info) stay in a list until the run ends. A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded and nested, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

# (module, function) -> (span name, info taken from the call)
TRACED: dict[tuple[str, str], tuple[str, Optional[Callable]]] = {
    ("cli", "main"): ("cli", None),
    ("codes", "parse_generator_matrix"): ("codes.parse", None),
    ("codes", "enumerate_recovery_sets"): ("codes.enumerate", lambda a, r: r.total_sets),
    ("graphrep", "build_graph"): ("graphrep.build", lambda a, r: r.edge_count),
    ("matching", "max_matching"): ("matching.max_matching", None),
    ("matching", "fractional_matching_number"): ("matching.fractional_lp", None),
    ("matching", "fractional_matching_oracle"): ("matching.oracle", None),
    ("matching", "min_vertex_cover"): ("matching.cover", None),
    ("lp", "solve_max"): ("lp.solve_max", lambda a, r: (len(a[0].rows) * a[0].num_vars, r.status == "infeasible")),
    ("lp", "feasible"): ("lp.feasible", lambda a, r: (len(a[0].rows) * a[0].num_vars, r is None)),
    ("region", "capacity"): ("region.capacity", None),
    ("region", "membership"): ("region.membership", None),
    ("region", "project_region"): ("region.project", None),
    ("region", "integral_membership"): ("region.integral", lambda a, r: r is not None),
    ("batchpir", "batch_t_max"): ("batchpir.batch", None),
    ("batchpir", "is_batch_t"): ("batchpir.batch", None),
    ("batchpir", "pir_t"): ("batchpir.pir", None),
}

SELF_MS = ("cli", "codes.parse", "codes.enumerate", "graphrep.build", "matching.max_matching",
           "matching.fractional_lp", "matching.oracle", "matching.cover", "lp.solve_max",
           "lp.feasible", "region.capacity", "region.membership", "region.project",
           "region.integral", "batchpir.batch", "batchpir.pir")

# metric name -> unit, in print order; every traced run reports all of them
LAYER_UNITS = {f"{name}.self_ms": "ms" for name in SELF_MS}
LAYER_UNITS.update({
    "codes.enumerate.calls": "count", "codes.recovery_sets": "count", "graphrep.edges": "count",
    "lp.solves": "count", "lp.infeasible": "count", "lp.cells": "count",
    "region.project.lp_solves": "count", "region.integral.calls": "count",
    "region.integral.found_ratio": "ratio", "batchpir.demand_vectors": "count",
    "trace.cycles": "count", "trace.overhead_ratio": "ratio",
})


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.query = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.query, None)
            if info is not None:
                spans[idx] = spans[idx][:5] + (info(args, result),)
            return result

        return traced

    def install(self) -> None:
        modules = {m: sys.modules[f"servicerate.{m}"] for m in ("cli", "codes", "graphrep", "matching", "lp", "region", "batchpir")}
        for (mod, attr), (name, info) in TRACED.items():
            original = getattr(modules[mod], attr)
            wrapper = self._wrap(name, original, info)
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer self times and counts per cycle of the workload; the
        traced cycles are identical, so counts repeat exactly for a seed."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {metric: 0 for metric in LAYER_UNITS}
        found = 0
        for idx, (name, start, end, parent, _, info) in enumerate(self.spans):
            out[f"{name}.self_ms"] += (end - start - child_time[idx]) * 1000
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "codes.enumerate":
                out["codes.enumerate.calls"] += 1
                out["codes.recovery_sets"] += info
            elif name == "graphrep.build":
                out["graphrep.edges"] += info
            elif name.startswith("lp."):
                out["lp.solves"] += 1
                out["lp.cells"] += info[0]
                out["lp.infeasible"] += info[1]
                out["region.project.lp_solves"] += parent_name == "region.project"
            elif name == "region.integral":
                out["region.integral.calls"] += 1
                found += info
                out["batchpir.demand_vectors"] += parent_name == "batchpir.batch"
        calls = out["region.integral.calls"]
        out = {metric: value / cycles for metric, value in out.items()}
        out["region.integral.found_ratio"] = found / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
