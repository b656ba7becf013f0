"""Report records, canonical JSON/CSV forms, and the advisory Aut cache.

Reports are a public contract: records are sorted by canonical partition
string, contain no timestamps, and serialize byte-identically across runs
and worker counts.  Timing lives in a sidecar file next to the report.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import secrets
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import replace

from .affine import SlopePartition
from .autsearch import is_automorphism
from .classify import UNCLASSIFIABLE, ReportRecord, _Analyzer, make_record, verify_witness
from .errors import UnclassifiableSchurian
from .scheme import Scheme, scheme_digest

SCHEMA_VERSION = 1
CACHE_ENV = "AFS_CACHE"
DEFAULT_CACHE_DIR = ".afs-cache"

CSV_COLUMNS = (
    "p", "partition_rgs", "rank", "valencies", "lambda", "primitive",
    "pseudocyclic", "schurian", "aut_order", "verdict", "witness", "error",
)


def record_to_dict(rec: ReportRecord) -> dict:
    return {
        "p": rec.p,
        "partition_rgs": rec.partition_rgs,
        "rank": rec.rank,
        "valencies": list(rec.valencies),
        "lambda": list(rec.lambda_set),
        "primitive": rec.primitive,
        "pseudocyclic": rec.pseudocyclic,
        "schurian": rec.schurian if rec.schurian is not None else "unknown",
        "aut_order": rec.aut_order,
        "verdict": rec.verdict,
        "witness": rec.witness,
        "error": rec.error,
    }


def record_from_dict(d: dict) -> ReportRecord:
    schurian = d["schurian"]
    if schurian == "unknown":
        schurian = None
    return ReportRecord(
        d["p"], d["partition_rgs"], d["rank"], tuple(d["valencies"]),
        tuple(d["lambda"]), d["primitive"], d["pseudocyclic"], schurian,
        d["aut_order"], d["verdict"], d["witness"], d["error"],
    )


def summary_of(records: list[ReportRecord]) -> dict:
    counts: dict[str, int] = {}
    failures = []
    for rec in records:
        counts[rec.verdict] = counts.get(rec.verdict, 0) + 1
        if rec.error is not None:
            failures.append(rec.partition_rgs)
    return {
        "p": records[0].p if records else None,
        "total": len(records),
        "counts_by_verdict": dict(sorted(counts.items())),
        "failures": failures,
    }


def report_json_bytes(records: list[ReportRecord]) -> bytes:
    """Canonical report bytes; identical across runs and worker counts."""
    obj = {
        "schema": SCHEMA_VERSION,
        "summary": summary_of(records),
        "records": [record_to_dict(r) for r in records],
    }
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def report_digest(records: list[ReportRecord]) -> str:
    return hashlib.sha256(report_json_bytes(records)).hexdigest()


def _atomic_write(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-report-{secrets.token_hex(8)}")
    # created as open() creates a file, so the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_report(path: str, records: list[ReportRecord],
                      elapsed_ms: float, jobs: int):
    _atomic_write(path, report_json_bytes(records))
    meta = {"elapsed_ms": round(elapsed_ms, 3), "jobs": jobs,
            "schema": SCHEMA_VERSION}
    _atomic_write(path + ".meta.json",
                  (json.dumps(meta, sort_keys=True) + "\n").encode())


def write_csv_report(path: str, records: list[ReportRecord]):
    """Same data as the JSON records, one quoted row per fusion."""
    rows = []
    for rec in records:
        d = record_to_dict(rec)
        rows.append([
            json.dumps(d[col], sort_keys=True, separators=(",", ":"))
            if col in ("valencies", "lambda", "witness") else
            ("" if d[col] is None else str(d[col]))
            for col in CSV_COLUMNS
        ])
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue().encode())


def read_csv_report(path: str) -> list[ReportRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            d = {
                "p": int(row["p"]),
                "partition_rgs": row["partition_rgs"],
                "rank": int(row["rank"]),
                "valencies": json.loads(row["valencies"]),
                "lambda": json.loads(row["lambda"]),
                "primitive": None if row["primitive"] == "" else row["primitive"] == "True",
                "pseudocyclic": None if row["pseudocyclic"] == "" else row["pseudocyclic"] == "True",
                "schurian": ("unknown" if row["schurian"] in ("", "unknown", "None")
                             else row["schurian"] == "True"),
                "aut_order": None if row["aut_order"] == "" else int(row["aut_order"]),
                "verdict": row["verdict"],
                "witness": json.loads(row["witness"]),
                "error": None if row["error"] == "" else row["error"],
            }
            out.append(record_from_dict(d))
    return out


# ---------------------------------------------------------------------------
# advisory cache of automorphism generators, keyed by scheme digest


class AutCache:
    """File cache of automorphism generators, keyed by scheme digest.

    An entry only seeds the automorphism search: `load` returns its
    generators once each is checked to be an automorphism of the scheme,
    and the search that takes them as known maps stays exhaustive, so the
    order and the orbital count are what a run without the cache gives.
    A truncated, padded or emptied entry only seeds less or more; a corrupt
    or stale one is ignored.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory or os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR)

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, digest + ".json")

    def load(self, X: Scheme) -> tuple[tuple[int, ...], ...] | None:
        """The stored generators of aut(X), each a checked automorphism, or None."""
        digest = scheme_digest(X)
        try:
            with open(self._path(digest), "rb") as fh:
                data = json.loads(fh.read())
            if (not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION
                    or data.get("n") != X.n):
                return None
            gens = tuple(tuple(g) for g in data["generators"])
            ok = all(all(type(x) is int for x in g) and is_automorphism(X.matrix, g) for g in gens)
            return gens if ok else None
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return None

    def store(self, X: Scheme, aut):
        """Write the generators of `aut`, an AutGroup of X."""
        digest = scheme_digest(X)
        data = {
            "schema": SCHEMA_VERSION,
            "n": X.n,
            "generators": [list(g) for g in aut.generators],
        }
        try:
            _atomic_write(self._path(digest),
                          (json.dumps(data, sort_keys=True) + "\n").encode())
        except OSError:
            pass   # cache is advisory


# ---------------------------------------------------------------------------
# sweeps with worker fan-out


def classify_record(analyzer: _Analyzer, P: SlopePartition) -> ReportRecord:
    """Classify P and re-check the record's published (verdict, witness) pair.

    The re-check may reuse a small quotient scheme that was already verified
    in this process (`scheme.quotient` verifies each label matrix once), but
    nothing that depends on P: `verify_witness` fuses P itself if the
    verdict reads a scheme.  UnclassifiableSchurian becomes the
    record's error, under that verdict with flags, aut_order and witness
    cleared.  A failed witness check sets only the error: the record keeps
    the verdict, flags and witness that failed.  Every other exception
    propagates.
    """
    try:
        rec = analyzer.classify(P)
        if not verify_witness(analyzer.p, P, rec.verdict, rec.witness):
            rec = replace(rec, error=f"witness verification failed for {P} -> {rec.verdict}")
    except UnclassifiableSchurian as exc:
        rec = make_record(analyzer.p, P, UNCLASSIFIABLE, {}, error=str(exc))
    return rec


_worker_analyzer: _Analyzer | None = None   # one per pool worker


def _start_worker(p: int, cache: AutCache | None):
    global _worker_analyzer
    _worker_analyzer = _Analyzer(p, cache)


def _classify_one(rgs: str) -> dict:
    P = SlopePartition.from_string(rgs)
    start = time.perf_counter()
    rec = classify_record(_worker_analyzer, P)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return record_to_dict(rec) | {"_elapsed_ms": elapsed_ms}


def _classify_task(task: list[str]) -> list[dict]:
    """One record per partition of a task, each through the module-level
    `_classify_one`, the name a tracer wraps to relay a worker's spans."""
    return [_classify_one(rgs) for rgs in task]


def _halving_class(P: SlopePartition) -> tuple[tuple[int, int], ...]:
    """For each odd m, the number of slopes in blocks of size m * 2**k, any k.

    PGL(2,p) keeps block sizes, and `involutive_presentations` splits a block
    of size 2a into two of size a.  Both keep this key, so every orbit that
    the analysis of P reaches, the inner candidates of its involutive search
    included, holds only partitions of P's class.
    """
    slopes: dict[int, int] = {}
    for size in P.block_sizes():
        odd = size // (size & -size)
        slopes[odd] = slopes.get(odd, 0) + size
    return tuple(sorted(slopes.items()))


def run_sweep(p: int, partitions, jobs: int = 1,
              cache: AutCache | None = None,
              progress=None) -> list[ReportRecord]:
    """Classify the given partitions; records sorted by canonical RGS.

    With jobs > 1 the partitions fall into halving classes
    (`_halving_class`), queued largest first, each in input order.  This
    process and a pool of jobs - 1 workers take whole classes from that
    queue, each with one analyzer of its own; no more participants take
    part than classes or CPUs, so one class or one CPU starts no pool.  A
    class goes to a worker only when the worker is idle, never queued
    behind a busy one.  This process classifies its own classes record by
    record and, between records, collects what the workers finished and
    hands each idle worker the next class.  The workers are forked from this
    process, so from the second sweep in a process on they inherit the
    tables and memos that earlier sweeps built here.  A class holds every
    orbit its analyses reach, so each orbit is searched on the member a
    serial sweep searches: one search, and one cache entry, per PGL(2,p)
    orbit at every job count, and a cold cache written with jobs=2 is the
    serial one.  A class runs on one participant, so the costliest class
    bounds the speed-up; the largest holds 106 of the 203 partitions at p=5
    and 1736 of 4140 at p=7.  Each record carries its `elapsed_ms`, timed
    around `classify_record` in whichever process ran it.  Record content
    is independent of the worker count.
    """
    partitions = list(partitions)
    records: list[ReportRecord] = []
    if jobs <= 1 or not partitions:
        analyzer = _Analyzer(p, cache)
        for P in partitions:
            records.append(classify_record(analyzer, P))
            if progress:
                progress(len(records), len(partitions))
    else:
        classes: dict[tuple[tuple[int, int], ...], list[SlopePartition]] = {}
        for P in partitions:
            classes.setdefault(_halving_class(P), []).append(P)
        queue = deque(sorted(classes.values(), key=len, reverse=True))
        workers = min(jobs, len(queue), os.cpu_count() or 1)
        analyzer = _Analyzer(p, cache)
        running = set()

        def add(rec: ReportRecord, elapsed_ms: float):
            records.append(replace(rec, elapsed_ms=elapsed_ms))
            if progress:
                progress(len(records), len(partitions))

        def collect(finished):
            # refill the workers that finished, then take their records
            running.difference_update(finished)
            while queue and len(running) < workers - 1:
                task = [P.as_string() for P in queue.popleft()]
                running.add(pool.submit(_classify_task, task))
            for future in finished:
                for d in future.result():
                    elapsed_ms = d.pop("_elapsed_ms")
                    add(record_from_dict(d), elapsed_ms)

        with (ProcessPoolExecutor(max_workers=workers - 1, initializer=_start_worker,
                                  initargs=(p, cache))
              if workers > 1 else nullcontext()) as pool:
            collect(())
            while queue:
                for P in queue.popleft():
                    start = time.perf_counter()
                    rec = classify_record(analyzer, P)
                    add(rec, (time.perf_counter() - start) * 1000.0)
                    collect([future for future in running if future.done()])
            while running:
                collect(wait(running, return_when=FIRST_COMPLETED).done)
    records.sort(key=lambda r: r.partition_rgs)
    return records
