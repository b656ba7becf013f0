"""The names the benchmark's tracer patches must exist in the library.

bench/spans.py wraps library functions by (module, attribute) and relays
pool results through two functions of planeschemes.report; a rename there
would break every traced benchmark run without failing a test.
"""

import importlib
import importlib.util
from pathlib import Path

from planeschemes import report
from planeschemes.classify import _Analyzer

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
