"""The names the benchmark uses must exist in the library.

bench/spans.py wraps library functions by (module, attribute) and relays
pool results through two functions of planeschemes.report; bench/child.py,
bench/make_reference.py and bench/test_checks.py import library names for
their set-up, reference digests and checks.
A rename there would break every benchmark run without failing a test.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest
from conftest import run_fresh

from planeschemes import report
from planeschemes.classify import _Analyzer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for module, attr, _ in targets:
        obj = importlib.import_module(f"planeschemes.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def test_pool_relay_and_memo_hooks_exist():
    assert callable(report._classify_one)
    assert callable(report.record_from_dict)
    assert _Analyzer(3).basic_memo == {}


def _library_names(path: Path):
    """(module, name) for each planeschemes name the file imports or reads as alias.name."""
    tree = ast.parse(path.read_text())
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "planeschemes":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("planeschemes"):
            names += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.append((aliases[node.value.id], node.attr))
    return names


def test_every_benchmark_import_resolves():
    files = {path.name: _library_names(path) for path in sorted(BENCH.glob("*.py"))}
    files = {name: names for name, names in files.items() if names}
    for file in ("child.py", "make_reference.py", "test_checks.py"):
        assert ("planeschemes", "run_sweep") in files.get(file, ()), file
    for file, names in files.items():
        for module, name in names:
            assert hasattr(importlib.import_module(module), name), (file, module, name)


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_setup_runs(trace):
    """bench/child.py's set-up, with and without spans, in a fresh interpreter.

    It calls library functions with arguments that a check of names alone
    would not see change.
    """
    job = {"src": str(ROOT / "src"), "trace": trace, "jobs": 1, "p": 5, "build_tables": True,
           "setup_only": True}
    ready, line = run_fresh([str(BENCH / "child.py"), json.dumps(job)]).splitlines()
    assert ready == "ready"
    assert set(json.loads(line)) == {"cal_after_ready"}
