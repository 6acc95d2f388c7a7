"""Byte-identity guard for the CLI's JSON.

Runs a fixed set of commands over a slice of the seeded corpus plus the
simplex-3 and simplex-4 codes and hashes every exit code and stdout into one
SHA-256. Refactors of the LP, the allocation polytope, enumeration or the
projection must leave every answer byte-identical, so the digest must not
move. The constant was recorded before the allocation-polytope builders were
merged; change it only for a deliberate change of the output contract.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import support
from test_cli import run_cli
from servicerate.codes import simplex_code

GOLDEN_SHA256 = "689f4e39c66d5c6af38085487e0267e468c440a08ea6dba0964d2d9837358f90"

CORPUS_SLICE = 40


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
