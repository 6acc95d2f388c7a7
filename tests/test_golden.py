"""Byte-identity guards for the CLI's JSON.

Each test runs a fixed set of commands over a slice of the seeded corpus plus
the simplex-3 and simplex-4 codes and hashes every exit code and stdout into
one SHA-256. Refactors of the LP, the allocation polytope, enumeration or the
projection must leave every answer byte-identical, so the digests must not
move. SMOKE_SHA256 holds the stdout digests of the benchmark's smoke runs at
seed 3. GOLDEN_SHA256 was recorded before the allocation-polytope builders
were merged, MEMBER_SHA256 before the LP kernel became a single simplex run
from the slack basis; change them only for a deliberate change of the output
contract.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import support
from test_cli import run_cli
from servicerate.codes import simplex_code

GOLDEN_SHA256 = "689f4e39c66d5c6af38085487e0267e468c440a08ea6dba0964d2d9837358f90"
MEMBER_SHA256 = "31f3239114b3c5eb26eff5b92dd3f9785d350d77d77ab0b84b6fe2c353619aaf"

SMOKE_SHA256 = {
    "lp-heavy": "d51a6859e4dfcb4db46bb8a114e88d329025f5eeb788013c0d8f4aa481dbdeb4",
    "wide-field": "710b6a45eeb87d96f681ebf66a95001de33779fd7384dd017a37b22e7680e2c0",
    "small-codes": "4f65a97484c42c67d794cd60d118ff48356838aab4242a2ade4b1890f7ebd8d2",
    "region-fm": "889f0818a4fe32a46b5ada11fcdd7a1e3fc9ccc63aab00e802e56d7efe52e9bf",
}

CORPUS_SLICE = 40

ROOT = Path(__file__).resolve().parents[1]


def _mu(n: int) -> str:
    return ",".join(str(Fraction(l % 3 + 1, 2)) for l in range(n))


def _commands(text: str, k: int, n: int) -> list[list[str]]:
    """Commands for one code; member queries sit at the capacity maximizers."""
    code = ["--code", "-"]
    cmds = [
        ["analyze", *code, "--with-pir"],
        ["capacity", *code],
        ["capacity", *code, "--mu", _mu(n)],
    ]
    for extra in ([], ["--mu", _mu(n)]):
        status, out, _ = run_cli(["capacity", *code, *extra], text)
        if status == 0:
            lam = ",".join(json.loads(out)["maximizer"])
            cmds.append(["member", *code, "--lambda", lam, *extra])
    if k <= 3 and n <= 5:
        cmds.append(["region", *code])
        cmds.append(["region", *code, "--mu", _mu(n)])
    return cmds


def _codes() -> list[tuple[str, int, int]]:
    matrices = support.corpus(CORPUS_SLICE) + [simplex_code(3), simplex_code(4)]
    return [(json.dumps(m.to_json_dict()), m.k, m.n) for m in matrices]


def test_cli_output_digest_is_unchanged():
    digest = hashlib.sha256()
    for text, k, n in _codes():
        for argv in _commands(text, k, n):
            status, out, _ = run_cli(argv, text)
            digest.update(f"{' '.join(argv)}\n{status}\n{out}\n".encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def _member_demands(value: Fraction, maximizer: list[Fraction]) -> list[list[Fraction]]:
    """Demands off the maximizer: uniform capacity/k (served or not), the
    maximizer halved, zero, and one over capacity (the maximizer plus 1 on
    the first file)."""
    k = len(maximizer)
    return [
        [value / k] * k,
        [x / 2 for x in maximizer],
        [Fraction(0)] * k,
        [maximizer[0] + 1, *maximizer[1:]],
    ]


def test_member_witness_digest_is_unchanged():
    # witnesses at demands inside the region pin the vertex `feasible` returns
    digest = hashlib.sha256()
    for text, _, n in _codes():
        for extra in ([], ["--mu", _mu(n)]):
            status, out, _ = run_cli(["capacity", "--code", "-", *extra], text)
            assert status == 0
            doc = json.loads(out)
            maximizer = [Fraction(x) for x in doc["maximizer"]]
            demands = _member_demands(Fraction(doc["capacity"]), maximizer)
            for i, lam in enumerate(demands):
                argv = ["member", "--code", "-", "--lambda", ",".join(map(str, lam)), *extra]
                status, out, _ = run_cli(argv, text)
                if i == len(demands) - 1:
                    assert status == 3, argv
                digest.update(f"{' '.join(argv)}\n{status}\n{out}\n".encode())
    assert digest.hexdigest() == MEMBER_SHA256


@pytest.mark.parametrize("workload", list(SMOKE_SHA256))
def test_benchmark_smoke_digest_is_unchanged(workload):
    # run.py checks every answer against its own oracle, then hashes each
    # query's first stdout
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2", "--smoke"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert f"stdout sha256 over each query's first call: {SMOKE_SHA256[workload]}" in lines
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stderr
