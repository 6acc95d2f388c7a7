"""servicerate benchmark: one closed-loop client calling the CLI in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp-heavy --seed 1 --seconds 25 --trace 0

(`--workload all` runs the four workloads one after another.)
The benchmark writes the workload's code files, imports `servicerate.cli`
from `src/`, calls the cycle's queries untimed for about 2 s to warm up,
then times whole cycles: as many as come nearest to `--seconds`, and at
least 5 cycles and 100 queries. Every answer is checked against an
independent oracle after the loop, and the stdout of each query's first
call, in cycle order, gives the digest. With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it times half as long untraced,
replays as many cycles with spans recorded around each library layer, and
reports the per-layer metrics per cycle. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check
from oracle import CodeFacts
from workloads import WORKLOADS, Workload, build

MIN_QUERIES = 100
MIN_CYCLES = 5  # calls per query, so that each meets the host's slow level
WARMUP_SECONDS = 2.0
SETUP_REPEATS = 5  # at each of three points of the run, so one slow phase cannot decide setup_s
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import servicerate.cli; print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {"query_p50_ms": "ms", "query_p90_ms": "ms", "queries_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


def import_times(src: Path, repeats: int) -> list[float]:
    """Times to import servicerate.cli in `repeats` fresh interpreters."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(src)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return times


class Runner:
    """Calls `cli.main` for each query of the cycle and keeps every distinct
    (exit code, stdout) per query with its count, for checking later."""

    def __init__(self, cli, workload: Workload, paths: dict[str, str]) -> None:
        self.cli = cli
        self.workload = workload
        self.argvs = [q.argv(paths[q.code], len(workload.codes[q.code][1][0])) for q in workload.cycle]
        self.outcomes: list[dict[tuple[object, str], int]] = [{} for _ in workload.cycle]
        self.tracer = None
        self.calls = 0

    def call(self, qi: int) -> tuple[str, float]:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.query = self.calls
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(self.argvs[qi])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # counted as a failed query, never fatal
                rc = f"uncaught {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.calls += 1
        key = (rc, out.getvalue())
        self.outcomes[qi][key] = self.outcomes[qi].get(key, 0) + 1
        return key[1], elapsed

    def warm_up(self, seconds: float) -> None:
        """Untimed calls in cycle order until `seconds` have passed or the
        cycle is done."""
        start = time.perf_counter()
        for qi in range(len(self.argvs)):
            if time.perf_counter() - start >= seconds:
                break
            self.call(qi)

    def loop(self, seconds: float, min_queries: int, cycles: int = 0,
             min_cycles: int = 1) -> tuple[list[float], list[float]]:
        """Whole cycles: exactly `cycles` if given, else the number of
        cycles nearest to `seconds`, with at least `min_queries` timed and
        `min_cycles` done (giving up on the counts at four times `seconds`).
        Returns query latencies in call order and cycle times."""
        latencies: list[float] = []
        cycle_walls: list[float] = []
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for qi in range(len(self.argvs)):
                latencies.append(self.call(qi)[1])
            now = time.perf_counter()
            cycle_walls.append(now - cycle_start)
            if cycles:
                if len(cycle_walls) == cycles:
                    break
            elif now - start + (now - start) / len(cycle_walls) / 2 >= seconds and (
                    (len(latencies) >= min_queries and len(cycle_walls) >= min_cycles) or now - start >= 4 * seconds):
                break
        return latencies, cycle_walls

    def digest(self) -> str:
        """SHA-256 of each query's first stdout, in cycle order."""
        h = hashlib.sha256()
        for seen in self.outcomes:
            h.update(next(iter(seen))[1].encode())
        return h.hexdigest()

    def failures(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons) over every call made so far."""
        facts = {name: CodeFacts(q, rows) for name, (q, rows) in self.workload.codes.items()}
        attempted = failed = 0
        reasons = []
        for query, seen in zip(self.workload.cycle, self.outcomes):
            for (rc, out), count in seen.items():
                attempted += count
                why = check(query, facts[query.code], rc, out)
                if why is not None:
                    failed += count
                    reasons.append(why)
        return attempted, failed, reasons


def end_to_end(latencies: list[float], cycle_walls: list[float], setup_s: float) -> dict[str, float]:
    """Figures at the host's slow level. On a shared host the same work
    runs up to 2x faster or slower from one cycle to the next, and a run
    spends a share of its time at each level that differs from run to run.
    The slow level is the one the host keeps returning to, so each query
    is taken at its slowest call over the run's cycles. The latency
    quantiles are over the cycle's queries, and the throughput is the
    cycle's queries over the sum of their times."""
    size = len(latencies) // len(cycle_walls)
    per_query = [max(latencies[qi::size]) for qi in range(size)]
    return {
        "query_p50_ms": statistics.median(per_query) * 1000,
        "query_p90_ms": statistics.quantiles(per_query, n=10, method="inclusive")[8] * 1000,
        "queries_per_s": size / sum(per_query),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help='"all" runs every workload in turn, each in its own process')
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed loop length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny cycle and no query minimum, for self-tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        for name in WORKLOADS:
            done = subprocess.run([sys.executable, __file__, "--workload", name] + rest
                                  + ["--smoke"] * args.smoke, timeout=600)
            if done.returncode:
                return done.returncode
        return 0

    root = Path.cwd()
    src = root / "src"
    if not (src / "servicerate" / "cli.py").is_file():
        print(f"error: no servicerate sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import servicerate.cli as cli

    if src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"error: imported servicerate from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    setup_repeats = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    import_times(src, 1)  # compiles the bytecode
    setup = import_times(src, setup_repeats)
    workload = build(args.workload, args.seed, args.smoke)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for name, (q, rows) in workload.codes.items():
            paths[name] = str(work / f"{name}.json")
            Path(paths[name]).write_text(json.dumps({"q": q, "matrix": rows}), encoding="utf-8")
        runner = Runner(cli, workload, paths)
        runner.warm_up(min(WARMUP_SECONDS, args.seconds / 10))
        min_queries, min_cycles = (1, 1) if args.smoke else (MIN_QUERIES, MIN_CYCLES)
        setup += import_times(src, setup_repeats)
        # A CLI process lives for one query and hardly reaches a full
        # collection. Here they come every few queries and rescan every
        # object of the benchmark and of the warm-up, adding ~13 ms to a
        # 6-ms query. Frozen objects are skipped, so a full collection scans
        # only what the queries allocate.
        gc.collect()
        gc.freeze()
        if args.trace:
            from spans import LAYER_UNITS, Tracer

            latencies, cycle_walls = runner.loop(args.seconds / 2, min_queries // 2)
            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                _, traced_walls = runner.loop(0, 0, len(cycle_walls))
            finally:
                runner.tracer.uninstall()
            metrics = runner.tracer.layer_metrics(len(cycle_walls))
            metrics["trace.cycles"] = len(cycle_walls)
            metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(cycle_walls)
            units = LAYER_UNITS
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            runner.tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            latencies, cycle_walls = runner.loop(args.seconds, min_queries, min_cycles=min_cycles)
            setup += import_times(src, setup_repeats)
            metrics = end_to_end(latencies, cycle_walls, statistics.median(setup))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted, failed, reasons = runner.failures()
    for why in reasons[:10]:
        print(f"wrong answer: {why}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(latencies)} timed queries "
          f"({len(cycle_walls)} cycles of {len(workload.cycle)}) in {sum(cycle_walls):.2f} s; attempted {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted:.6f}")
    print(f"stdout sha256 over each query's first call: {runner.digest()}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
