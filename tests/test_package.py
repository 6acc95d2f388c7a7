"""Checks over the package source as a whole."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import servicerate

ROOT = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statements():
    # asserts vanish under `python -O`; invariants raise explicit errors instead
    sources = sorted(Path(servicerate.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_perfbench_trace_hooks_resolve():
    # perfbench/run.py --trace 1 wraps these functions by name
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, attr in spans.TRACED:
        target = importlib.import_module(f"servicerate.{module}")
        assert callable(getattr(target, attr, None)), f"servicerate.{module}.{attr}"


def test_exports_resolve():
    # `from servicerate import *` fails on a stale name in any __all__
    names = ["servicerate"] + [
        f"servicerate.{path.stem}"
        for path in sorted(Path(servicerate.__file__).parent.glob("*.py"))
        if path.stem != "__init__"
    ]
    for name in names:
        module = importlib.import_module(name)
        assert module.__all__, name
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ names {missing}"


def test_cli_import_loads_no_dataclasses():
    # records are NamedTuples: dataclasses (and inspect, dis, ast, tokenize
    # behind it) would be most of the CLI's import time
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import servicerate.cli; "
        "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    src = Path(servicerate.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_submodule_import_loads_only_its_dependencies():
    # the package __init__ re-exports nothing, so importing one submodule
    # loads only its own imports: codes needs no LP, region or fractions
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import servicerate.codes; "
        "print(*(m for m in ('servicerate.lp', 'servicerate.region', "
        "'servicerate.batchpir', 'fractions') if m in sys.modules))"
    )
    src = Path(servicerate.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
