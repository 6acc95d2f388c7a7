"""End-to-end CLI behavior: JSON schemas, exit codes, stdin/stdout plumbing."""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from servicerate import cli
from servicerate.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from servicerate.codes import simplex_code

F = Fraction


@pytest.fixture(scope="module")
def simplex3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "simplex3.json"
    path.write_text(json.dumps(simplex_code(3).to_json_dict()))
    return str(path)


@pytest.fixture(scope="module")
def identity2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "identity2.json"
    path.write_text(json.dumps({"q": 2, "matrix": [[1, 0], [0, 1]]}))
    return str(path)


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def run_json(argv, stdin_text=""):
    code, out, err = run_cli(argv, stdin_text)
    return code, json.loads(out), err


def test_analyze_simplex3(simplex3_path):
    code, doc, _ = run_json(["analyze", "--code", simplex3_path])
    assert code == EXIT_OK
    assert doc["code"] == {"q": 2, "k": 3, "n": 7, "recovery_counts": [4, 4, 4]}
    assert doc["graph"] == {
        "vertices": 10,
        "real": 7,
        "dummies": 3,
        "edges": 12,
        "bipartite": True,
        "sides": [4, 6],
    }
    assert doc["bounds"] == {
        "matching": "4",
        "fractional_matching": "4",
        "vertex_cover": "4",
    }
    assert doc["capacity"]["value"] == "4"
    maximizer = [F(x) for x in doc["capacity"]["maximizer"]]
    assert sum(maximizer) == 4
    assert doc["mu"] == ["1"] * 7
    assert "batch" not in doc and "pir" not in doc


def test_analyze_with_batch_and_pir(simplex3_path):
    code, doc, _ = run_json(
        ["analyze", "--code", simplex3_path, "--with-batch", "--with-pir"]
    )
    assert code == EXIT_OK
    assert doc["batch"]["t_max"] == 4
    assert doc["batch"]["verdicts"][-1] == {
        "t": 5,
        "all_served": False,
        "first_failure": [5, 0, 0],
    }
    assert "criterion" in doc["batch"]
    assert doc["pir"] == {"t_pir": 4, "per_file": [4, 4, 4]}


def test_capacity_exact_strings(simplex3_path):
    code, doc, _ = run_json(["capacity", "--code", simplex3_path])
    assert code == EXIT_OK
    assert doc["capacity"] == "4"
    rows = doc["allocation"]
    assert len(rows) == 3 and all(len(r) == 4 for r in rows)
    # allocation rows sum to the maximizer entries
    for row, lam in zip(rows, doc["maximizer"]):
        assert sum(F(x) for x in row) == F(lam)


def test_member_accept_and_reject(simplex3_path):
    code, doc, _ = run_json(
        ["member", "--code", simplex3_path, "--lambda", "2,1,1"]
    )
    assert code == EXIT_OK
    assert doc["member"] is True and doc["integral"] is False
    assert doc["lambda"] == ["2", "1", "1"]
    assert "allocation" in doc

    code, doc, _ = run_json(
        ["member", "--code", simplex3_path, "--lambda", "5,0,0"]
    )
    assert code == EXIT_INFEASIBLE
    assert doc["member"] is False
    assert "allocation" not in doc


def test_member_fractional_demands(simplex3_path):
    code, doc, _ = run_json(
        ["member", "--code", simplex3_path, "--lambda", "7/2,1/4,1/4"]
    )
    assert code == EXIT_OK
    assert doc["lambda"] == ["7/2", "1/4", "1/4"]


def test_member_integral_flag(simplex3_path):
    code, doc, _ = run_json(
        ["member", "--code", simplex3_path, "--lambda", "2,1,1", "--integral"]
    )
    assert code == EXIT_OK
    assert doc["integral"] is True
    values = {x for row in doc["allocation"] for x in row}
    assert values <= {"0", "1"}
    code, out, _ = run_cli(
        ["member", "--code", simplex3_path, "--lambda", "1/2,0,0", "--integral"]
    )
    assert code == EXIT_USAGE and out == ""


def test_member_integral_refuses_mu(simplex3_path):
    # the integral route is unit-capacity only; --mu must not be dropped silently
    code, out, err = run_cli(
        ["member", "--code", simplex3_path, "--lambda", "1,1,1", "--integral",
         "--mu", "0,0,0,0,0,0,0"]
    )
    assert code == EXIT_USAGE and out == ""
    assert "--mu" in err and "--integral" in err


def test_member_with_mu(identity2_path):
    code, doc, _ = run_json(
        ["member", "--code", identity2_path, "--lambda", "2,3", "--mu", "2,3"]
    )
    assert code == EXIT_OK
    code, doc, _ = run_json(
        ["member", "--code", identity2_path, "--lambda", "2,3"]
    )
    assert code == EXIT_INFEASIBLE


def test_region_simplex3(simplex3_path):
    code, doc, _ = run_json(["region", "--code", simplex3_path])
    assert code == EXIT_OK
    assert doc["k"] == 3
    assert doc["nonnegativity_implied"] is True
    assert doc["halfspaces"] == [{"coeffs": ["1", "1", "1"], "rhs": "4"}]
    assert doc["vertices"] == [
        ["0", "0", "0"],
        ["0", "0", "4"],
        ["0", "4", "0"],
        ["4", "0", "0"],
    ]


def test_region_box(identity2_path):
    code, doc, _ = run_json(["region", "--code", identity2_path, "--mu", "2,3"])
    assert code == EXIT_OK
    assert doc["halfspaces"] == [
        {"coeffs": ["0", "1"], "rhs": "3"},
        {"coeffs": ["1", "0"], "rhs": "2"},
    ]
    assert doc["vertices"] == [["0", "0"], ["0", "3"], ["2", "0"], ["2", "3"]]


def test_bounds(simplex3_path):
    code, doc, _ = run_json(["bounds", "--code", simplex3_path])
    assert code == EXIT_OK
    assert doc == {
        "matching": "4",
        "fractional_matching": "4",
        "vertex_cover": "4",
    }


def test_batch_walk_and_single_t(simplex3_path):
    code, doc, _ = run_json(["batch", "--code", simplex3_path])
    assert code == EXIT_OK
    assert doc["t_max"] == 4
    assert [v["t"] for v in doc["verdicts"]] == [1, 2, 3, 4, 5]

    code, doc, _ = run_json(["batch", "--code", simplex3_path, "--t", "3"])
    assert code == EXIT_OK
    assert doc == {"t": 3, "all_served": True, "first_failure": None}

    code, doc, _ = run_json(["batch", "--code", simplex3_path, "--t", "5"])
    assert code == EXIT_INFEASIBLE
    assert doc == {"t": 5, "all_served": False, "first_failure": [5, 0, 0]}


def test_pir(simplex3_path):
    code, doc, _ = run_json(["pir", "--code", simplex3_path])
    assert code == EXIT_OK
    assert doc == {"t_pir": 4, "per_file": [4, 4, 4]}


def test_alg1():
    code, doc, _ = run_json(["alg1", "--lambda", "2,1,1"])
    assert code == EXIT_OK
    assert doc["lambda"] == [2, 1, 1]
    edges = doc["matching"]
    assert len(edges) == 4
    files = sorted(e["file"] for e in edges)
    assert files == [1, 1, 2, 3]
    # endpoints are pairwise distinct
    seen = [v for e in edges for v in (e["u"], e["v"])]
    assert len(seen) == len(set(seen))
    code, out, _ = run_cli(["alg1", "--lambda", "2,2,1"])
    assert code == EXIT_USAGE and out == ""


def test_simplex_emit_and_round_trip(simplex3_path, tmp_path):
    code, doc, _ = run_json(["simplex", "--k", "3"])
    assert code == EXIT_OK
    assert doc == {
        "q": 2,
        "matrix": [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
    }
    # writing to a file and analyzing it matches analyzing the original
    out = tmp_path / "s3.json"
    code, text, _ = run_cli(["simplex", "--k", "3", "--out", str(out)])
    assert code == EXIT_OK and text == ""
    a = run_cli(["analyze", "--code", str(out)])
    b = run_cli(["analyze", "--code", simplex3_path])
    assert a == b


def test_stdin_code(simplex3_path):
    text = json.dumps(simplex_code(3).to_json_dict())
    code, doc, _ = run_json(["capacity", "--code", "-"], stdin_text=text)
    assert code == EXIT_OK
    assert doc["capacity"] == "4"


def test_pipe_simplex_into_analyze_byte_identical(simplex3_path):
    _, emitted, _ = run_cli(["simplex", "--k", "3"])
    via_pipe = run_cli(["analyze", "--code", "-"], stdin_text=emitted)
    via_file = run_cli(["analyze", "--code", simplex3_path])
    assert via_pipe == via_file


def test_graph_json_and_dot(simplex3_path):
    code, doc, _ = run_json(["graph", "--code", simplex3_path])
    assert code == EXIT_OK
    assert len(doc["vertices"]) == 10
    assert len(doc["edges"]) == 12

    code, out, _ = run_cli(["graph", "--code", simplex3_path, "--dot"])
    assert code == EXIT_OK
    assert out.startswith("graph service_rate {")
    assert out.count(" -- ") == 12


def test_verbose_summaries(simplex3_path):
    code, out, err = run_cli(["bounds", "--code", simplex3_path, "--verbose"])
    assert code == EXIT_OK
    assert err.strip() == "matching 4, fractional 4, cover 4"
    # non-verbose runs stay silent on stderr
    _, _, quiet = run_cli(["bounds", "--code", simplex3_path])
    assert quiet == ""


def test_usage_errors(simplex3_path, tmp_path):
    code, out, err = run_cli(["capacity", "--code", str(tmp_path / "missing.json")])
    assert code == EXIT_USAGE
    assert out == "" and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 6, "matrix": [[1]]}')
    code, _, err = run_cli(["capacity", "--code", str(bad)])
    assert code == EXIT_USAGE and "error:" in err

    code, _, err = run_cli(["member", "--code", simplex3_path, "--lambda", "1,2"])
    assert code == EXIT_USAGE  # wrong demand length

    code, _, err = run_cli(["member", "--code", simplex3_path, "--lambda", "x,y,z"])
    assert code == EXIT_USAGE


def test_huge_decimal_exponents_are_refused_quickly(simplex3_path):
    # Fraction("1e-999999999") alone would build 10**999999999, so the calls
    # run in a child under a timeout: a regression fails instead of hanging
    cases = [
        ["member", "--code", simplex3_path, "--lambda", "1e-999999999,0,0"],
        ["capacity", "--code", simplex3_path, "--mu", "1,1,1,1,1,1,1E-999_999_999"],
    ]
    script = (
        "import json, time\n"
        "from servicerate.cli import main\n"
        "took = []\n"
        f"for argv in {cases!r}:\n"
        "    start = time.perf_counter()\n"
        "    took.append((main(argv), time.perf_counter() - start))\n"
        "print(json.dumps(took))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    for code, seconds in json.loads(proc.stdout):
        assert code == EXIT_USAGE and seconds < 0.5
    messages = proc.stderr.splitlines()
    assert len(messages) == 2
    expected = (("--lambda", "-999999999"), ("--mu", "-999_999_999"))
    for (flag, exponent), message in zip(expected, messages):
        assert message.startswith(f"error: cannot parse {flag} ")
        assert f"decimal exponent {exponent} exceeds the cap of 4300 in magnitude" in message


def test_unprintable_values_are_refused_naming_the_flag(simplex3_path):
    # a numerator or denominator from 10**4300 up has too many digits to print
    cases = [
        ("--lambda", "1e4300", ["member", "--lambda", "1e4300,0,0"]),
        ("--lambda", "1e-4300", ["member", "--lambda", "1e-4300,0,0"]),
        ("--lambda", "12345e4299", ["member", "--lambda", "12345e4299,0,0"]),
        ("--mu", "1e-4300", ["capacity", "--mu", "1,1,1,1,1,1,1e-4300"]),
    ]
    for flag, token, argv in cases:
        code, out, err = run_cli(argv + ["--code", simplex3_path])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot parse {flag} ")
        assert f"{token!r} has a numerator or denominator of more than 4300 digits" in err
    code, doc, _ = run_json(["member", "--code", simplex3_path, "--lambda", "1e4299,0,0"])
    assert code == EXIT_INFEASIBLE
    assert doc["lambda"] == [str(10**4299), "0", "0"]


def test_unprintable_answers_are_refused_naming_the_limit(simplex3_path):
    # each entry prints, but the capacity 4 * 9e4299 has 4301 digits
    mu = ",".join(["9e4299"] * 7)
    code, out, err = run_cli(["capacity", "--code", simplex3_path, "--mu", mu])
    assert code == EXIT_INFEASIBLE and out == ""
    assert err == (
        "error: an answer has a numerator or denominator of 4301 digits, "
        "past the limit of 4300 digits for printing\n"
    )
    for k in (1, 2, 4299, 4300, 4301, 9000):
        assert cli._digits(10 ** (k - 1)) == cli._digits(10**k - 1) == k


def test_code_json_with_unparsable_integers(tmp_path):
    # json.loads refuses ints past CPython's 4300-digit limit with a plain ValueError
    huge = "1" * 4301
    for text in (f'{{"q": {huge}, "matrix": [[1]]}}', f'{{"q": 2, "matrix": [[{huge}]]}}'):
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run_cli(["capacity", "--code", str(path)])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: invalid code JSON: ")


def test_deeply_nested_code_json(tmp_path):
    depth = 100_000
    text = '{"q": 2, "matrix": ' + "[" * depth + "]" * depth + "}"
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    for argv, stdin_text in (
        (["capacity", "--code", str(deep)], ""),
        (["capacity", "--code", "-"], text),
    ):
        code, out, err = run_cli(argv, stdin_text)
        assert code == EXIT_USAGE and out == ""
        assert "nested too deeply" in err


def test_guard_exit_code(tmp_path):
    wide = tmp_path / "wide.json"
    wide.write_text(
        json.dumps({"q": 2, "matrix": [[1 if i == j else 0 for j in range(4)] for i in range(4)]})
    )
    code, out, err = run_cli(["region", "--code", str(wide)])
    assert code == EXIT_INFEASIBLE
    assert out == "" and "error:" in err


def test_installed_entry_point(simplex3_path):
    proc = subprocess.run(
        [sys.executable, "-m", "servicerate.cli", "capacity", "--code", simplex3_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["capacity"] == "4"


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE) == (0, 2, 3)


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    original_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    try:
        for k in ("2", "3"):
            assert run_cli(["simplex", "--k", k])[0] == EXIT_OK
    finally:
        cli._build_parser.cache_clear()
    assert built.count("servicerate") == 1
