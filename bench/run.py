"""Sweep benchmark for planeschemes: one workload per call, checked outputs.

    python3 bench/run.py --workload p5-sweep-warm --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The library is imported from ``src/``
of that tree by fresh interpreters (bench/child.py), which time the calls
into it from outside.  Every record is checked by bench/checks.py.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of bench/spans.py with ``--trace 1``.  Details of the run
go to ``.bench_out/`` in the tree.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S, calibrate
from checks import PrimeTables, check_pass, set_partitions
from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0
# share of each PGL(2,7) orbit in the p=7 sample (at least two members)
SAMPLE_FRACTION = 1 / 30


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    jobs: int
    warm: bool            # AutCache filled by an untimed pass beforehand
    interpreters: int     # fresh interpreters timed from start to ready
    sample: bool = False  # stratified sample instead of every partition


WORKLOADS = {w.name: w for w in (
    Workload("p7-sample-serial", 7, 1, False, 3, sample=True),
    Workload("p5-sweep-warm", 5, 1, True, 4),
    Workload("p5-sweep-jobs2", 5, 2, False, 4),
)}


def sample_partitions(tables: PrimeTables, seed: int) -> dict[str, float]:
    """Stratified sample: per orbit, max(min(2, size), round(size * fraction))
    members, each weighted by size / members taken, so that an orbit weighs
    what it weighs in the full sweep."""
    rng = random.Random(seed)
    orbits: dict[str, list[str]] = {}
    for rgs, rep in sorted(tables.orbit_of.items()):
        orbits.setdefault(rep, []).append(rgs)
    out = {}
    for rep in sorted(orbits):
        members = orbits[rep]
        k = max(min(2, len(members)), round(len(members) * SAMPLE_FRACTION))
        out.update((rgs, len(members) / k) for rgs in rng.sample(members, k))
    return out


def partitions_for(w: Workload, tables: PrimeTables, seed: int):
    """The partitions in canonical order, as `afs sweep` gives them (the order
    sets which cache entries a serial pass can reuse and how the pool splits
    its work), and their weights, or None where every partition counts once."""
    if not w.sample:
        return set_partitions(w.p + 1), None
    weight_of = sample_partitions(tables, seed)
    parts = sorted(weight_of)
    return parts, [weight_of[rgs] for rgs in parts]


def weighted_percentile(values: list[float], weights: list[float], q: float) -> float:
    """The least value with at least a share q of the total weight at or below it."""
    total, acc = sum(weights), 0.0
    for value, weight in sorted(zip(values, weights)):
        acc += weight
        if acc >= q * total:
            return value
    return max(values)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return math.floor(100 * (1 - 10 / n))


class Child:
    """A fresh interpreter running child.py; its set-up is timed to 'ready'."""

    def __init__(self, job: dict, deadline: float, stderr_path: Path):
        cal_before = calibrate()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("AFS_CACHE", None)
        with open(stderr_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
            watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                self.setup_s = time.perf_counter() - start
                out = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        if proc.returncode != 0 or ready.strip() != "ready":
            why = "ran out of time" if proc.returncode == -9 else \
                f"exited with {proc.returncode}: {stderr_path.read_text()[-2000:]}"
            raise RuntimeError(f"benchmark interpreter {why}")
        self.result = json.loads(out.strip().splitlines()[-1])
        self.cal_s = (cal_before + self.result["cal_after_ready"]) / 2


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    tables = PrimeTables(w.p)
    parts, weights = partitions_for(w, tables, seed)
    work = OUT / f"work-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = {"src": str(ROOT / "src"), "p": w.p, "jobs": w.jobs, "trace": trace,
            "partitions": parts, "seconds": seconds / w.interpreters,
            "fill": False, "fill_dir": None, "setup_only": False}
    setups, results = [], []     # (set-up s, calibration s); child results
    try:
        for k in range(w.interpreters):
            job = dict(base, cache_dir=str(work / f"run-{k}"),
                       trace_file=str(OUT / f"spans-{w.name}-{seed}-{k}.jsonl"))
            os.makedirs(job["cache_dir"])
            log = work / f"stderr-{k}.txt"
            if w.warm:
                job.update(fill=k == 0, fill_dir=str(work / "filled"))
            if w.jobs > 1:
                # the sweeping parent builds no tables, as `afs sweep --jobs`
                setup = Child(dict(job, setup_only=True, build_tables=True), deadline, log)
                results.append(Child(dict(job, build_tables=False), deadline, log).result)
            else:
                setup = Child(dict(job, build_tables=True), deadline, log)
                results.append(setup.result)
            setups.append((setup.setup_s, setup.cal_s))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [ps for r in results for ps in r["passes"]]
    records = {d: recs for r in results for d, recs in r["records"].items()}
    reference = None
    if not w.sample:
        reference = json.loads((BENCH / "reference.json").read_text())[f"p{w.p}"]
    failed_by_digest, problems = {}, []
    for digest, recs in records.items():
        failed, found = check_pass(tables, parts, recs, digest, reference,
                                   full_sweep=not w.sample)
        failed_by_digest[digest] = len(failed)
        problems.extend(found)
    attempted = len(parts) * len(passes)
    failed = sum(failed_by_digest[ps["digest"]] for ps in passes)

    end_to_end = end_to_end_metrics(w, results, passes, setups, weights)
    metrics = layer_metrics(w, results, passes) if trace else end_to_end
    return {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
            "partitions": len(parts), "passes": len(passes),
            "problems": problems[:50], "correct": not problems,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "end_to_end": end_to_end,
            "wall_clock": end_to_end_metrics(w, results, passes, setups, weights,
                                             scaled=False),
            "setups": [{"setup_s": s, "cal_s": c} for s, c in setups],
            "fill_cpu_s": results[0].get("fill_cpu_s"),
            "passes_detail": [{k: v for k, v in ps.items() if k != "fusion_ms"}
                              for ps in passes]}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(w, results, passes, setups, weights, scaled=True) -> dict:
    """Medians over the passes of the run, and over its set-ups.

    Each pass and each set-up is scaled by REFERENCE_S over the calibration
    time measured next to it (bench/calibrate.py); `scaled=False` gives the
    plain wall-clock figures, which go to the run's details.  With weights
    (the p=7 sample), a pass's rate and percentiles are those of its fusions
    weighted as in the full sweep; fusion_ms[i] belongs to the i-th partition
    given, since a serial run_sweep reports progress in that order.
    """
    def speed(cal_s):
        return REFERENCE_S / cal_s if scaled else 1.0

    q = tail_percentile(len(passes[0]["fusion_ms"]))
    rate, p50, tail = [], [], []
    for ps in passes:
        ms = [x * speed(ps["cal_s"]) for x in ps["fusion_ms"]]
        if weights:
            rate.append(1000.0 * sum(weights) / sum(map(operator.mul, weights, ms)))
            p50.append(weighted_percentile(ms, weights, 0.5))
            tail.append(weighted_percentile(ms, weights, q / 100))
            continue
        rate.append(ps["records"] / (ps["wall_s"] * speed(ps["cal_s"])))
        p50.append(statistics.median(ms))
        tail.append(statistics.quantiles(ms, n=100, method="inclusive")[q - 1])
    rss_kb = max(r["maxrss_kb"] + (w.jobs * r["children_maxrss_kb"] if w.jobs > 1 else 0)
                 for r in results)
    return {
        "fusions_per_s": _metric(statistics.median(rate), "1/s"),
        "record_ms_p50": _metric(statistics.median(p50), "ms"),
        "record_ms_tail": _metric(statistics.median(tail), "ms"),
        "setup_s": _metric(statistics.median(s * speed(c) for s, c in setups), "s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
    }


def layer_metrics(w, results, passes) -> dict:
    """Per-layer figures per pass; the lattice time per interpreter."""
    totals: dict = {}
    for r in results:
        for key, value in r["trace"]["totals"].items():
            totals[key] = totals.get(key, 0) + value
    n = len(passes)
    out = {name: _metric(totals.get(name, 0) / n, unit) for name, unit in PER_LAYER.items()}
    pool = w.jobs > 1
    out["report.pool.worker_cpu_s"] = _metric(
        sum(ps["worker_cpu_s"] for ps in passes) / n if pool else 0.0, "s")
    out["report.pool.wall_s"] = _metric(
        sum(ps["wall_s"] for ps in passes) / n if pool else 0.0, "s")
    procs = sum(r["trace"]["lattice_procs"] for r in results)
    out["subgroups.subgroup_lattice.ms"] = _metric(
        sum(r["trace"]["lattice_ms"] for r in results) / max(procs, 1), "ms")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "planeschemes" / "__init__.py").is_file():
        print(f"no planeschemes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        summary = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(summary, indent=1) + "\n")
    for line in summary["problems"]:
        print(line, file=sys.stderr)
    print(json.dumps({key: summary[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
