"""Spans around the public functions of each planeschemes module.

A wrapper replaces each traced function under every name that binds it:
``fuse`` is patched in ``planeschemes.affine``, in ``planeschemes.classify``
(which imported it) and in the package namespace.  Methods are patched on
their class.  Spans are kept in memory as (name, start, end, parent) and
written out when the run ends; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name)
TARGETS = (
    ("affine", "fuse", "affine.fuse"),
    ("scheme", "verify_scheme", "scheme.verify_scheme"),
    ("scheme", "parabolics", "scheme.parabolics"),
    ("scheme", "is_subtensor", "scheme.is_subtensor"),
    ("autsearch", "automorphism_group", "autsearch.automorphism_group"),
    ("autsearch", "orbitals", "autsearch.orbitals"),
    ("permgroup", "StabilizerChain.__init__", "permgroup.StabilizerChain"),
    ("classify", "_Analyzer.classify", "classify.classify"),
    ("classify", "_Analyzer.find_involutive", "classify.find_involutive"),
    ("classify", "_Analyzer.classify_basic", "classify.classify_basic"),
    ("classify", "verify_witness", "classify.verify_witness"),
    ("report", "AutCache.load", "report.AutCache.load"),
    ("report", "AutCache.store", "report.AutCache.store"),
    ("subgroups", "subgroup_lattice", "subgroups.subgroup_lattice"),
)

# per-layer metrics and their units; bench/run.py reports each per pass
PER_LAYER = {
    "affine.fuse.calls": "count",
    "affine.fuse.ms": "ms",
    "scheme.verify_scheme.calls": "count",
    "scheme.verify_scheme.self_ms": "ms",
    "scheme.parabolics.self_ms": "ms",
    "scheme.is_subtensor.self_ms": "ms",
    "autsearch.automorphism_group.calls": "count",
    "autsearch.automorphism_group.self_ms": "ms",
    "autsearch.nodes": "count",
    "autsearch.orbitals.calls": "count",
    "autsearch.orbitals.ms": "ms",
    "permgroup.StabilizerChain.calls": "count",
    "permgroup.StabilizerChain.ms": "ms",
    "classify.classify.calls": "count",
    "classify.find_involutive.calls": "count",
    "classify.find_involutive.self_ms": "ms",
    "classify.classify_basic.calls": "count",
    "classify.classify_basic.memo_hits": "count",
    "classify.verify_witness.ms": "ms",
    "report.AutCache.load.calls": "count",
    "report.AutCache.hits": "count",
    "report.AutCache.load.ms": "ms",
    "report.AutCache.store.ms": "ms",
    "report.pool.worker_cpu_s": "s",
    "report.pool.wall_s": "s",
    "subgroups.subgroup_lattice.ms": "ms",
}


class Tracer:
    """In-memory spans plus counters read off arguments and results."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, outermost]
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.worker: dict[str, float] = {}     # totals relayed from pool workers
        self.worker_pids: set[int] = set()     # workers that built the lattice

    def count(self, key: str, by: int = 1):
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            idx = len(tracer.spans)
            outermost = tracer._open.get(name, 0) == 0
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent, outermost])
            tracer._stack.append(idx)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def install(self):
        """Patch every target under every name bound to it; return self."""
        hooks = {
            "autsearch.automorphism_group": (None, _count_nodes),
            "classify.classify_basic": (_count_memo_hit, None),
            "report.AutCache.load": (None, _count_cache_hit),
        }
        for module, attr, name in TARGETS:
            mod = importlib.import_module(f"planeschemes.{module}")
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), before, after))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(name, original, before, after)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("planeschemes"):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, key, traced)
        return self

    def install_pool_relay(self):
        """Carry worker spans back with each record of a process-pool sweep.

        The pool's workers are forked from this process and so run the
        patched functions; each call of ``_classify_one`` aggregates the
        spans it made into its result, and ``record_from_dict`` in this
        process takes them out again.
        """
        report = importlib.import_module("planeschemes.report")
        classify_one = report._classify_one
        record_from_dict = report.record_from_dict
        tracer = self

        @functools.wraps(classify_one)
        def relay_out(args):
            first, counters = len(tracer.spans), dict(tracer.counters)
            d = classify_one(args)
            agg = aggregate(tracer.spans[first:], first)
            for key, value in tracer.counters.items():
                agg[key] = value - counters.get(key, 0)
            del tracer.spans[first:]
            d["_bench_trace"] = {"pid": os.getpid(), "agg": agg}
            return d

        @functools.wraps(record_from_dict)
        def relay_in(d):
            relayed = d.pop("_bench_trace", None)
            if relayed is not None:
                merge(tracer.worker, relayed["agg"])
                if "subgroups.subgroup_lattice.calls" in relayed["agg"]:
                    tracer.worker_pids.add(relayed["pid"])
            return record_from_dict(d)

        report._classify_one = relay_out
        report.record_from_dict = relay_in

    def write(self, path: str, pass_of_span):
        """One JSON line per span, with its pass (-1: set-up or the filling pass)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_of_span(i)}) + "\n")


def _count_nodes(tracer: Tracer, aut):
    tracer.count("autsearch.nodes", int(aut.nodes))


def _count_memo_hit(tracer: Tracer, args):
    analyzer, partition = args[0], args[1]
    if partition.rgs in analyzer.basic_memo:
        tracer.count("classify.classify_basic.memo_hits")


def _count_cache_hit(tracer: Tracer, hit):
    if hit is not None:
        tracer.count("report.AutCache.hits")


def aggregate(spans, first: int = 0) -> dict[str, float]:
    """Calls, inclusive ms and self ms per span name.

    `spans` is the slice of the full span list that starts at index
    `first`; parents are indices into the full list.  Inclusive time counts
    outermost spans only, so recursion is not counted twice.
    """
    child_ms: dict[int, float] = {}
    for _, start, end, parent, _ in spans:
        child_ms[parent] = child_ms.get(parent, 0.0) + (end - start) * 1000.0
    out: dict[str, float] = {}
    for i, (name, start, end, _, outermost) in enumerate(spans, first):
        ms = (end - start) * 1000.0
        merge(out, {f"{name}.calls": 1, f"{name}.ms": ms if outermost else 0.0,
                    f"{name}.self_ms": ms - child_ms.get(i, 0.0)})
    return out


def merge(into: dict, other: dict):
    for key, value in other.items():
        into[key] = into.get(key, 0) + value
