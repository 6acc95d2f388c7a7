"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench

A smoke-size run of every workload must print every metric with its unit,
answer everything correctly and give the same stdout digest for a seed;
a planted wrong answer must be counted as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import END_TO_END_UNITS, Runner  # noqa: E402
from spans import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def smoke(workload: str, seed: int, trace: int = 0) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("stdout sha256"))
    return digest, json.loads(lines[-1])


def assert_metrics(result: dict, units: dict[str, str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_digest_is_stable(workload):
    digest, result = smoke(workload, seed=5)
    assert_metrics(result, END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert smoke(workload, seed=5)[0] == digest
    assert smoke(workload, seed=6)[0] != digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_layer_metric(workload):
    _, result = smoke(workload, seed=5, trace=1)
    assert_metrics(result, LAYER_UNITS)
    assert result["metrics"]["cli.self_ms"]["value"] > 0


def test_planted_wrong_capacity_counts_as_failure(tmp_path):
    import servicerate.cli as cli

    workload = build("lp-heavy", 5, smoke=True)
    paths = {}
    for name, (q, rows) in workload.codes.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps({"q": q, "matrix": rows}), encoding="utf-8")
    runner = Runner(cli, workload, paths)
    runner.loop(0, 0, 1)
    assert runner.failures()[1] == 0

    qi = next(i for i, q in enumerate(workload.cycle) if q.command == "capacity" and q.mu is None)
    (rc, out), count = runner.outcomes[qi].popitem()
    doc = json.loads(out)
    doc["capacity"] = str(Fraction(doc["capacity"]) + 1)
    runner.outcomes[qi][(rc, json.dumps(doc))] = count
    attempted, failed, reasons = runner.failures()
    assert failed == count and "capacity" in reasons[0]
