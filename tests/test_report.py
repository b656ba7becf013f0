import json
import multiprocessing
import os
import random
import sys
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, wait
from pathlib import Path

import numpy as np
import pytest
from conftest import run_fresh
from oracles import pgl_orbit_count

from planeschemes import autsearch, report, scheme
from planeschemes.affine import SlopePartition, build_affine_scheme, fuse, partitions_iter
from planeschemes.autsearch import automorphism_group
from planeschemes.classify import UNCLASSIFIABLE, UNKNOWN, _Analyzer, make_record
from planeschemes.permgroup import StabilizerChain
from planeschemes.report import (
    AutCache,
    ReportRecord,
    classify_record,
    read_csv_report,
    record_from_dict,
    record_to_dict,
    report_digest,
    report_json_bytes,
    run_sweep,
    write_csv_report,
    write_json_report,
)
from planeschemes.scheme import scheme_digest
from planeschemes.subgroups import pgl_orbit

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
P7_DIGEST = "e816a80a660ad6a358e85bcd4aac6b1d61b0c701a2bb28701f82e6a669651d67"


def test_record_round_trip_json():
    records = run_sweep(3, partitions_iter(4))
    for rec in records:
        d = record_to_dict(rec)
        back = record_from_dict(json.loads(json.dumps(d)))
        assert record_to_dict(back) == d


def test_report_bytes_deterministic():
    r1 = run_sweep(3, partitions_iter(4))
    r2 = run_sweep(3, partitions_iter(4))
    assert report_json_bytes(r1) == report_json_bytes(r2)
    assert report_digest(r1) == report_digest(r2)


def test_report_jobs_deterministic():
    seq = run_sweep(3, partitions_iter(4), jobs=1)
    par = run_sweep(3, partitions_iter(4), jobs=2)
    assert report_json_bytes(seq) == report_json_bytes(par)


def test_a_serial_record_is_the_analysis_record():
    # timed only in a pool worker: a serial sweep copies no record
    analyzer, P = _Analyzer(3), SlopePartition.from_string("0111")
    assert classify_record(analyzer, P) is analyzer.basic_memo[P.rgs]


def _containers(value):
    """Each dict and list in value, at any depth, value itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for v in value.values() if isinstance(value, dict) else value:
            yield from _containers(v)


@pytest.mark.parametrize("p", [3, 5])
def test_records_own_their_witnesses(p):
    # a carried record copies its orbit's witness, and an InvolutiveOf witness
    # its inner record's: no dict or list is shared, so editing one record's
    # witness leaves every other record as a fresh sweep gives it
    records = run_sweep(p, partitions_iter(p + 1))
    owner = {}
    for rec in records:
        for c in _containers(record_to_dict(rec)["witness"]):
            assert owner.setdefault(id(c), rec.partition_rgs) == rec.partition_rgs
    fresh = [record_to_dict(r) for r in run_sweep(p, partitions_iter(p + 1))]
    first = {}                            # the first record of each verdict
    for rec in records:
        first.setdefault(rec.verdict, rec)
    assert p == 3 or {"NonSchurian", "InvolutiveOf"} <= set(first)
    edited = {rec.partition_rgs for rec in first.values()}
    for rec in first.values():
        for c in list(_containers(record_to_dict(rec)["witness"])):
            if isinstance(c, list):
                c.append(-1)
            else:
                c["edited"] = True
    for rec, want in zip(records, fresh):
        got = record_to_dict(rec)
        assert (got == want) == (rec.partition_rgs not in edited), rec.partition_rgs


def test_pool_records_are_timed(monkeypatch):
    # the benchmark reads a pool sweep's elapsed_ms for its percentiles, so a
    # record the sweeping process classified is timed as a worker's is; a
    # serial sweep times none
    monkeypatch.setattr("planeschemes.report.os.cpu_count", lambda: 2)
    for p in (3, 5):
        records = run_sweep(p, partitions_iter(p + 1), jobs=2)
        assert all(rec.elapsed_ms > 0 for rec in records)
        assert all(rec.elapsed_ms == 0.0 for rec in run_sweep(p, partitions_iter(p + 1)))


class _Failed(Exception):
    pass


@pytest.mark.parametrize("side", ["worker", "sweeper"])
def test_a_pool_sweep_failure_propagates_and_stops_the_pool(monkeypatch, side):
    # jobs=2 at p=5: the pool's one worker takes the largest halving class,
    # the sweeping process the second largest
    monkeypatch.setattr("planeschemes.report.os.cpu_count", lambda: 2)
    sweeper = os.getpid()
    if side == "worker":
        def failing_one(rgs):
            raise _Failed(rgs)

        monkeypatch.setattr(report, "_classify_one", failing_one)
    else:
        sizes = Counter(report._halving_class(P) for P in partitions_iter(6))
        own = sorted(sizes, key=sizes.get, reverse=True)[1]
        classify = report.classify_record

        def failing_record(analyzer, P):
            if os.getpid() == sweeper and report._halving_class(P) == own:
                raise _Failed(P.as_string())
            return classify(analyzer, P)

        monkeypatch.setattr(report, "classify_record", failing_record)
    with pytest.raises(_Failed):
        run_sweep(5, partitions_iter(6), jobs=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_progress_counts_each_record(jobs):
    calls = []
    records = run_sweep(3, partitions_iter(4), jobs=jobs,
                        progress=lambda done, total: calls.append((done, total)))
    n = len(records)
    assert n == 15 and calls == [(i, n) for i in range(1, n + 1)]


def test_a_serial_sweep_classifies_in_the_order_given(monkeypatch):
    # the benchmark reads the i-th time of a serial sweep as the i-th partition's
    given = list(partitions_iter(6))
    random.Random(5).shuffle(given)
    seen, classify = [], report.classify_record

    def recorded(analyzer, P):
        seen.append(P)
        return classify(analyzer, P)

    monkeypatch.setattr(report, "classify_record", recorded)
    records = run_sweep(5, given, jobs=1)
    assert seen == given != sorted(given, key=lambda P: P.rgs)
    assert report_digest(records) == json.loads(REFERENCE.read_text())["p5"]


def test_csv_round_trip(tmp_path):
    # and the reader's branches for an undecided schurity and for unset flags
    P = SlopePartition.from_string("0123")
    records = run_sweep(3, partitions_iter(4)) + [
        make_record(3, P, UNKNOWN, {"reason": "budget"}, True, False),
        make_record(3, P, UNCLASSIFIABLE, {}, error='no case, "quoted"\nsecond line')]
    assert records[-2].schurian is None and records[-2].aut_order is None
    assert records[-1].primitive is None and records[-1].pseudocyclic is None
    path = tmp_path / "report.csv"
    write_csv_report(str(path), records)
    back = read_csv_report(str(path))
    assert [record_to_dict(r) for r in back] == [record_to_dict(r) for r in records]


def test_json_report_files(tmp_path):
    records = run_sweep(3, partitions_iter(4))
    path = tmp_path / "report.json"
    write_json_report(str(path), records, elapsed_ms=12.5, jobs=1)
    data = json.loads(path.read_bytes())
    assert data["schema"] == 1
    assert data["summary"]["total"] == 15
    assert data["summary"]["failures"] == []
    assert len(data["records"]) == 15
    assert data["records"] == sorted(data["records"], key=lambda r: r["partition_rgs"])
    assert "elapsed_ms" not in json.dumps(data)
    meta = json.loads((tmp_path / "report.json.meta.json").read_bytes())
    assert meta["elapsed_ms"] == 12.5


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
def test_written_files_get_the_mode_open_gives(tmp_path, umask):
    # reports, sidecars, CSV reports and cache entries, next to a plain open()
    records = run_sweep(3, [SlopePartition.from_string("0111")])
    cache = AutCache(str(tmp_path / "cache"))
    X = build_affine_scheme(3)
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        write_json_report(str(tmp_path / "report.json"), records, elapsed_ms=1.0, jobs=1)
        write_csv_report(str(tmp_path / "report.csv"), records)
        cache.store(X, automorphism_group(X))
    finally:
        os.umask(old)
    want = (tmp_path / "plain").stat().st_mode
    assert want & 0o777 == 0o666 & ~umask
    written = ["report.json", "report.json.meta.json", "report.csv"]
    written += [f"cache/{f}" for f in os.listdir(tmp_path / "cache")]
    assert len(written) == 4
    assert {f: (tmp_path / f).stat().st_mode for f in written} == dict.fromkeys(written, want)


def test_written_files_leave_the_process_umask_alone(tmp_path, monkeypatch):
    # a write that set the umask, even for a moment, would take it from
    # every thread of the process
    records = run_sweep(3, [SlopePartition.from_string("0111")])
    cache = AutCache(str(tmp_path / "cache"))
    X = build_affine_scheme(3)

    def no_umask(mask):
        raise AssertionError(f"umask({mask:o}) called")

    monkeypatch.setattr(os, "umask", no_umask)
    write_json_report(str(tmp_path / "report.json"), records, elapsed_ms=1.0, jobs=1)
    cache.store(X, automorphism_group(X))
    assert len(os.listdir(tmp_path / "cache")) == 1
    assert sorted(os.listdir(tmp_path)) == ["cache", "report.json", "report.json.meta.json"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def no_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", no_replace)
    with pytest.raises(OSError, match="replace failed"):
        write_csv_report(str(tmp_path / "report.csv"), [])
    assert os.listdir(tmp_path) == []


def test_cache_hit_and_miss(tmp_path):
    cache = AutCache(str(tmp_path / "cache"))
    X = build_affine_scheme(3)
    assert cache.load(X) is None
    aut = automorphism_group(X)
    cache.store(X, aut)
    # a hit is the stored generators, checked; the search recounts the order
    assert cache.load(X) == aut.generators


def test_cache_corruption_recomputes(tmp_path):
    cache = AutCache(str(tmp_path / "cache"))
    P = SlopePartition.from_string("0000")     # the trivial scheme of degree 9
    first = _Analyzer(3, cache).classify(P)
    path = os.path.join(cache.directory, scheme_digest(fuse(3, P)) + ".json")
    with open(path, "wb") as fh:
        fh.write(b"garbage not json")
    again = _Analyzer(3, cache).classify(P)
    assert again.aut_order == first.aut_order == 362880


def test_cache_deeply_nested_entry_is_ignored(tmp_path):
    # json.loads raises RecursionError, not ValueError, on nesting this deep;
    # the corrupt entry is ignored, and the sweep that reads it gives the
    # record of a sweep with no cache
    P = SlopePartition.from_string("0111")
    X = fuse(3, P)
    cache = AutCache(str(tmp_path / "cache"))
    os.makedirs(cache.directory)
    with open(os.path.join(cache.directory, scheme_digest(X) + ".json"), "w") as fh:
        fh.write("[" * 100000)
    assert cache.load(X) is None
    got = run_sweep(3, [P], cache=cache)
    assert [record_to_dict(r) for r in got] == [record_to_dict(r) for r in run_sweep(3, [P])]


def test_cache_malformed_entries_recompute(tmp_path, monkeypatch):
    # well-formed JSON of the wrong shape is recomputed, not raised; the
    # analyzer of 0111 searches 0111 and reads that fusion's entry
    P = SlopePartition.from_string("0111")
    X = fuse(3, P)
    cache = AutCache(str(tmp_path / "cache"))
    cache.store(X, automorphism_group(X))
    path = os.path.join(cache.directory, scheme_digest(X) + ".json")
    entry = json.loads(open(path).read())
    float_gens = dict(entry, generators=[[float(x) for x in g] for g in entry["generators"]])
    load = cache.load
    loads = []

    def recorded(Y):
        got = load(Y)
        loads.append((scheme_digest(Y), got))
        return got

    monkeypatch.setattr(cache, "load", recorded)
    for data in (float_gens, [entry]):
        with open(path, "w") as fh:
            json.dump(data, fh)
        loads.clear()
        res = _Analyzer(3, cache).classify(P)
        assert loads == [(scheme_digest(X), None)]
        assert (res.verdict, res.aut_order) == ("WreathOfTrivial", 1296)


def test_an_entry_holding_nodes_still_loads_and_seeds(tmp_path):
    # entries used to hold the search's node count too; one written so still
    # hits, and its generators prune the search without changing the order
    X = fuse(3, SlopePartition.from_string("0001"))
    cache = AutCache(str(tmp_path / "cache"))
    cold = automorphism_group(X)
    cache.store(X, cold)
    path = os.path.join(cache.directory, scheme_digest(X) + ".json")
    entry = json.loads(open(path).read())
    assert sorted(entry) == ["generators", "n", "schema"]
    with open(path, "w") as fh:
        json.dump(dict(entry, nodes=cold.nodes), fh, sort_keys=True)
    assert cache.load(X) == cold.generators
    seeded = automorphism_group(X, known=cache.load(X))
    assert seeded.order == cold.order and seeded.nodes < cold.nodes


def test_cache_rejects_wrong_generators(tmp_path):
    cache = AutCache(str(tmp_path / "cache"))
    X = build_affine_scheme(3)
    aut = automorphism_group(X)
    cache.store(X, aut)
    path = os.path.join(cache.directory, scheme_digest(X) + ".json")
    data = json.loads(open(path).read())
    data["generators"] = [list(range(1, 9)) + [0]]   # not an automorphism
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert cache.load(X) is None


@pytest.mark.parametrize("tamper", ["empty", "first", "identity", "repeat"])
def test_tampered_cache_entry_changes_no_record(tmp_path, tamper):
    # a hit only seeds the search, so an entry that holds too few or too many
    # automorphisms changes no record; 0001 is searched on its own and as the
    # first member of its orbit that the sweep meets, so both read the entry
    P = SlopePartition.from_string("0001")
    X = fuse(3, P)
    cache = AutCache(str(tmp_path / "cache"))
    cache.store(X, automorphism_group(X))
    path = os.path.join(cache.directory, scheme_digest(X) + ".json")
    entry = json.loads(open(path).read())
    gens = entry["generators"]
    entry["generators"] = {"empty": [], "first": gens[:1],
                           "identity": gens + [list(range(X.n))],
                           "repeat": gens + gens[:1]}[tamper]
    with open(path, "w") as fh:
        json.dump(entry, fh)
    assert cache.load(X) == tuple(tuple(g) for g in entry["generators"])
    res = _Analyzer(3, cache).classify(P)
    assert (res.verdict, res.aut_order) == ("WreathOfTrivial", 1296)
    want = json.loads(REFERENCE.read_text())["p3"]
    assert report_digest(run_sweep(3, partitions_iter(4), cache=cache)) == want


def test_cache_sweep_digest_unchanged(tmp_path):
    cold = run_sweep(3, partitions_iter(4))
    cache = AutCache(str(tmp_path / "cache"))
    warmup = run_sweep(3, partitions_iter(4), cache=cache)
    warm = run_sweep(3, partitions_iter(4), cache=cache)   # all hits now
    assert report_digest(cold) == report_digest(warmup) == report_digest(warm)


def test_cache_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("AFS_CACHE", str(tmp_path / "envcache"))
    cache = AutCache()
    assert cache.directory == str(tmp_path / "envcache")
    monkeypatch.delenv("AFS_CACHE")
    assert AutCache().directory == ".afs-cache"


def test_serial_sweep_searches_each_orbit_once(monkeypatch, tmp_path):
    searches = []
    chains = []
    run = autsearch._AutSearch.run
    chain_init = StabilizerChain.__init__

    def counted(self, *args):
        searches.append(self)
        return run(self, *args)

    def counted_chain(self, *args):
        chains.append(1)
        return chain_init(self, *args)

    monkeypatch.setattr(autsearch._AutSearch, "run", counted)
    monkeypatch.setattr(StabilizerChain, "__init__", counted_chain)
    want = json.loads(REFERENCE.read_text())["p5"]
    cache = AutCache(str(tmp_path / "cache"))
    nodes = []
    for _ in ("cold", "warm"):
        searches.clear()
        records = run_sweep(5, partitions_iter(6), cache=cache)
        # one search per PGL(2,5) orbit, on the first member met, hit or miss
        assert (len(records), len(searches)) == (203, 13)
        assert report_digest(records) == want
        nodes.append(sum(s.nodes for s in searches))
    # the search counts the group order itself: no Schreier-Sims on either
    # pass, and the stored generators only prune the warm searches
    assert chains == []
    assert nodes[1] < nodes[0]


def test_serial_sweep_enumerates_no_parabolics(monkeypatch, tmp_path):
    # a sweep reads each record's parabolics off its partition and tests
    # only the witness's color sets on the fusion, cold and warm alike
    calls = []
    parabolics = scheme.parabolics

    def counted(X):
        calls.append(X)
        return parabolics(X)

    # under every name that binds it, so an import elsewhere cannot hide a call
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("planeschemes"):
            for name, value in list(vars(module).items()):
                if value is parabolics:
                    monkeypatch.setattr(module, name, counted)
    want = json.loads(REFERENCE.read_text())["p5"]
    cache = AutCache(str(tmp_path / "cache"))
    for _ in ("cold", "warm"):
        assert report_digest(run_sweep(5, partitions_iter(6), cache=cache)) == want
    assert calls == []


@pytest.mark.parametrize("p,orbits", [(3, 5), (5, 13)])
def test_serial_sweep_enumerates_each_orbit_once(monkeypatch, p, orbits):
    # the first member met of each orbit is searched, and its orbit is
    # enumerated then; every later member is carried without a pass over PGL(2,p)
    calls = []

    def counted(q, P):
        calls.append(P.as_string())
        return pgl_orbit(q, P)

    monkeypatch.setattr("planeschemes.classify.pgl_orbit", counted)
    records = run_sweep(p, partitions_iter(p + 1))
    assert len(calls) == orbits
    assert report_digest(records) == json.loads(REFERENCE.read_text())[f"p{p}"]


@pytest.mark.parametrize("p", [3, 5])
def test_serial_sweep_fuses_only_where_points_are_read(monkeypatch, p):
    # the analyses of a sweep, their orbit searches and involutive searches
    # included, fuse a partition once when its orbit is searched on it or its
    # record is schurian, and never for a carried NonSchurian record; the
    # witness re-check fuses on its own and is not counted
    fused = Counter()
    inside = []
    analyzers = set()
    classify_once = _Analyzer.classify

    def counted_fuse(q, partition):
        if inside:
            fused[partition.as_string()] += 1
        return fuse(q, partition)

    def counted_classify(analyzer, P):
        analyzers.add(analyzer)
        inside.append(P)
        try:
            return classify_once(analyzer, P)
        finally:
            inside.pop()

    monkeypatch.setattr("planeschemes.classify.fuse", counted_fuse)
    monkeypatch.setattr(_Analyzer, "classify", counted_classify)
    records = run_sweep(p, partitions_iter(p + 1))
    (analyzer,) = analyzers
    searched = {rec.partition_rgs for rgs, (_, rec) in analyzer.orbit_memo.items()
                if rec.partition_rgs == SlopePartition(rgs).as_string()}
    assert len(searched) == {3: 5, 5: 13}[p]
    assert fused == {rec.partition_rgs: 1 for rec in records
                     if rec.schurian or rec.partition_rgs in searched}
    assert any(not rec.schurian for rec in records) == (p == 5)
    assert report_digest(records) == json.loads(REFERENCE.read_text())[f"p{p}"]


def test_a_sweep_makes_one_record_per_orbit(monkeypatch):
    # make_record builds the record of each orbit's searched member; every later
    # member is that record under its own rgs, and a carried NonSchurian record
    # is never built
    made = []

    def counted(q, P, *args, **kwargs):
        made.append(P)
        return make_record(q, P, *args, **kwargs)

    monkeypatch.setattr("planeschemes.classify.make_record", counted)
    records = run_sweep(5, partitions_iter(6))
    assert len(made) == len({min(pgl_orbit(5, P)) for P in made}) == 13
    assert sum(rec.schurian is False for rec in records) == 125
    assert report_digest(records) == json.loads(REFERENCE.read_text())["p5"]


def test_a_sweep_verifies_nothing(monkeypatch):
    # the wreath and subtensor witnesses are read off the fusion's labels: a
    # pass builds no reference scheme and verifies no quotient, and makes 71
    # subtensor checks at p=5; only the affine scheme itself is verified
    build_affine_scheme(5)
    verified, checks = [], []
    verify, labels = scheme.verify_scheme, scheme._subtensor_labels

    def counted_verify(matrix):
        verified.append(np.asarray(matrix).tobytes())
        return verify(matrix)

    def counted_labels(X, e1, e2):
        checks.append(X)
        return labels(X, e1, e2)

    for module in ("scheme", "affine"):
        monkeypatch.setattr(f"planeschemes.{module}.verify_scheme", counted_verify)
    monkeypatch.setattr("planeschemes.classify._subtensor_labels", counted_labels)
    records = run_sweep(5, partitions_iter(6))
    assert verified == []
    assert len(checks) == 71
    assert report_digest(records) == json.loads(REFERENCE.read_text())["p5"]


@pytest.mark.parametrize("p", [5, 7])
def test_a_fresh_sweep_calls_verify_scheme_only_for_the_affine_scheme(p):
    # in a new interpreter no cache of an earlier test hides a call
    code = (
        "from planeschemes import affine, scheme\n"
        "from planeschemes.affine import build_affine_scheme, partitions_iter\n"
        "from planeschemes.report import run_sweep\n"
        f"build_affine_scheme({p})\n"
        "calls, verify = [], scheme.verify_scheme\n"
        "for module in (affine, scheme):\n"
        "    module.verify_scheme = lambda m: calls.append(m) or verify(m)\n"
        f"run_sweep({p}, partitions_iter({p + 1}))\n"
        "print(len(calls))\n")
    assert run_fresh(["-c", code]).strip() == "0"


def test_pool_workers_share_a_cache(tmp_path):
    # a cold pool pass writes the serial sweep's entries, one per orbit, and
    # a warm one reads them
    want = json.loads(REFERENCE.read_text())["p5"]
    run_sweep(5, partitions_iter(6), cache=AutCache(str(tmp_path / "serial")))
    cache = AutCache(str(tmp_path / "cache"))
    for _ in ("cold", "warm"):
        assert report_digest(run_sweep(5, partitions_iter(6), jobs=2, cache=cache)) == want
        assert sorted(os.listdir(cache.directory)) == sorted(os.listdir(tmp_path / "serial"))
    assert len(os.listdir(cache.directory)) == 13


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs each
    submitted task here and returns its finished future."""

    started: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class _RoundRobinPool(_InlinePool):
    """An _InlinePool whose workers each keep their own analyzer; the i-th
    submitted task goes to worker i mod max_workers."""

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        self.analyzers = []
        for _ in range(max_workers):
            initializer(*initargs)
            self.analyzers.append(report._worker_analyzer)
        self.submitted = 0

    def submit(self, fn, *args):
        report._worker_analyzer = self.analyzers[self.submitted % len(self.analyzers)]
        self.submitted += 1
        return super().submit(fn, *args)


@pytest.mark.parametrize("jobs,cpus,workers", [
    (5000, 64, 4),      # no more workers than tasks: four halving classes at p=5
    (5000, 3, 3),       # nor than CPUs
    (2, 64, 2),
    (3, None, 1),       # an unknown CPU count counts as one
])
def test_pool_starts_at_most_one_worker_per_task_and_cpu(monkeypatch, jobs, cpus, workers):
    monkeypatch.setattr("planeschemes.report.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr("planeschemes.report.os.cpu_count", lambda: cpus)
    monkeypatch.setattr("planeschemes.report._worker_analyzer", None)
    monkeypatch.setattr(_InlinePool, "started", [])
    records = run_sweep(5, partitions_iter(6), jobs=jobs)
    # the sweeping process is one of the workers: one worker starts no pool
    assert _InlinePool.started == ([workers - 1] if workers > 1 else [])
    assert report_digest(records) == json.loads(REFERENCE.read_text())["p5"]


class _HeldPool(_InlinePool):
    """An _InlinePool whose tasks stay pending, their workers busy, until the
    sweep waits: each wait runs the oldest pending task."""

    def __init__(self, max_workers, initializer, initargs):
        super().__init__(max_workers, initializer, initargs)
        self.max_workers, self.held = max_workers, []
        _HeldPool.last = self

    def submit(self, fn, *args):
        busy = sum(not future.done() for future, _, _ in self.held)
        assert busy < self.max_workers, "a task queued behind a busy worker"
        self.held.append((Future(), fn, args))
        return self.held[-1][0]

    @staticmethod
    def wait(futures, return_when):
        future, fn, args = next(held for held in _HeldPool.last.held if not held[0].done())
        assert future in futures and return_when == FIRST_COMPLETED
        future.set_result(fn(*args))
        return wait([future])


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_pool_sweep_queues_no_class_behind_a_busy_worker(monkeypatch, jobs):
    # while every worker is busy, the sweeping process takes the next class
    # itself; at p=5 the workers hold the largest classes to the end
    monkeypatch.setattr("planeschemes.report.ProcessPoolExecutor", _HeldPool)
    monkeypatch.setattr("planeschemes.report.wait", _HeldPool.wait)
    monkeypatch.setattr("planeschemes.report.os.cpu_count", lambda: 64)
    monkeypatch.setattr("planeschemes.report._worker_analyzer", None)
    monkeypatch.setattr(_HeldPool, "started", [])
    parts = list(partitions_iter(6))
    records = run_sweep(5, parts, jobs=jobs)
    sizes = sorted(Counter(map(report._halving_class, parts)).values(), reverse=True)
    assert [len(task) for _, _, (task,) in _HeldPool.last.held] == sizes[:jobs - 1]
    assert report_digest(records) == json.loads(REFERENCE.read_text())["p5"]


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_pool_sweep_searches_each_orbit_once(monkeypatch, p, jobs):
    # the sweeping process and each pool worker take whole halving classes,
    # which hold every orbit their analyses reach, involutive inner
    # candidates included
    searched = []
    search = _Analyzer._search

    def counted(analyzer, P):
        searched.append((analyzer, P.as_string()))
        return search(analyzer, P)

    monkeypatch.setattr(_Analyzer, "_search", counted)
    monkeypatch.setattr("planeschemes.report.ProcessPoolExecutor", _RoundRobinPool)
    monkeypatch.setattr("planeschemes.report.os.cpu_count", lambda: 64)
    monkeypatch.setattr("planeschemes.report._worker_analyzer", None)
    monkeypatch.setattr(_RoundRobinPool, "started", [])
    records = run_sweep(p, partitions_iter(p + 1), jobs=jobs)
    workers = min(jobs, {3: 2, 5: 4, 7: 6}[p])
    assert _RoundRobinPool.started == [workers - 1]
    # every participant searched, so the sweeping process's analyzer too
    assert len({analyzer for analyzer, _ in searched}) == workers
    assert len(searched) == len({min(pgl_orbit(p, SlopePartition.from_string(rgs)))
                                 for _, rgs in searched}) == pgl_orbit_count(p)
    want = json.loads(REFERENCE.read_text()).get(f"p{p}", P7_DIGEST)
    assert report_digest(records) == want


@pytest.mark.parametrize("p,jobs", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_report_digest_pinned(p, jobs):
    # the report bytes are a public contract: the digests are fixed values
    want = json.loads(REFERENCE.read_text())[f"p{p}"]
    assert report_digest(run_sweep(p, partitions_iter(p + 1), jobs=jobs)) == want


@pytest.mark.parametrize("seed,flags", [("0", ()), ("1", ()), ("2", ("-O",))])
def test_report_digest_independent_of_hash_seed_and_optimize(seed, flags, monkeypatch):
    # _refine hashes traces with the salted builtin hash(); no report field may
    # depend on the salt, and none on whether asserts are compiled out, in a
    # serial sweep or in a pool's workers and sweeping process
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    code = ("from planeschemes.affine import partitions_iter\n"
            "from planeschemes.report import report_digest, run_sweep\n"
            "for jobs in (1, 2):\n"
            "    for p in (3, 5):\n"
            "        print(report_digest(run_sweep(p, partitions_iter(p + 1), jobs=jobs)))\n")
    want = json.loads(REFERENCE.read_text())
    assert run_fresh([*flags, "-c", code]).split() == [want["p3"], want["p5"]] * 2


def test_a_sweep_does_not_import_numpy_ma():
    # under numpy 2 a bare np.unique(x) imports numpy.ma, 12-30 ms in every
    # fresh interpreter and pool worker; numpy 1.x loads it with numpy itself
    code = ("import sys\n"
            "import planeschemes\n"
            "from planeschemes.affine import partitions_iter\n"
            "from planeschemes.report import run_sweep\n"
            "before = 'numpy.ma' in sys.modules\n"
            "run_sweep(5, partitions_iter(6))\n"
            "print(before, 'numpy.ma' in sys.modules)\n")
    before, after = run_fresh(["-c", code]).split()
    assert after == before
