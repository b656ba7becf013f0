import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import run_fresh

from planeschemes import autsearch, scheme
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


def test_pool_records_are_timed():
    records = run_sweep(3, partitions_iter(4), jobs=2)
    assert all(rec.elapsed_ms > 0 for rec in records)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_progress_counts_each_record(jobs):
    calls = []
    records = run_sweep(3, partitions_iter(4), jobs=jobs,
                        progress=lambda done, total: calls.append((done, total)))
    n = len(records)
    assert n == 15 and calls == [(i, n) for i in range(1, n + 1)]


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
def test_serial_sweep_fuses_each_record_once(monkeypatch, p):
    # the analyses of a sweep, their orbit searches and involutive searches
    # included, fuse each partition exactly once; the witness re-check fuses
    # on its own and is not counted
    fused = Counter()
    inside = []
    classify_once = _Analyzer.classify

    def counted_fuse(q, partition):
        if inside:
            fused[partition.as_string()] += 1
        return fuse(q, partition)

    def counted_classify(analyzer, P):
        inside.append(P)
        try:
            return classify_once(analyzer, P)
        finally:
            inside.pop()

    monkeypatch.setattr("planeschemes.classify.fuse", counted_fuse)
    monkeypatch.setattr(_Analyzer, "classify", counted_classify)
    records = run_sweep(p, partitions_iter(p + 1))
    assert fused == {rec.partition_rgs: 1 for rec in records}
    assert report_digest(records) == json.loads(REFERENCE.read_text())[f"p{p}"]


def test_pool_workers_share_a_cache(tmp_path):
    # the workers of a pool read each other's entries while the pass runs
    want = json.loads(REFERENCE.read_text())["p5"]
    cache = AutCache(str(tmp_path / "cache"))
    for _ in ("cold", "warm"):
        assert report_digest(run_sweep(5, partitions_iter(6), jobs=2, cache=cache)) == want


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs items here."""

    started: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs,cpus,workers", [
    (5000, 64, 15),     # no more workers than partitions
    (5000, 4, 4),       # nor than CPUs
    (2, 64, 2),
    (3, None, 1),       # an unknown CPU count counts as one
])
def test_pool_starts_at_most_one_worker_per_partition_and_cpu(monkeypatch, jobs, cpus, workers):
    monkeypatch.setattr("planeschemes.report.ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr("planeschemes.report.os.cpu_count", lambda: cpus)
    monkeypatch.setattr("planeschemes.report._worker_analyzer", None)
    monkeypatch.setattr(_InlinePool, "started", [])
    records = run_sweep(3, partitions_iter(4), jobs=jobs)
    assert _InlinePool.started == [workers]
    assert report_digest(records) == json.loads(REFERENCE.read_text())["p3"]


@pytest.mark.parametrize("p,jobs", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_report_digest_pinned(p, jobs):
    # the report bytes are a public contract: the digests are fixed values
    want = json.loads(REFERENCE.read_text())[f"p{p}"]
    assert report_digest(run_sweep(p, partitions_iter(p + 1), jobs=jobs)) == want


@pytest.mark.parametrize("seed,flags", [("0", ()), ("1", ()), ("2", ("-O",))])
def test_report_digest_independent_of_hash_seed_and_optimize(seed, flags, monkeypatch):
    # _refine hashes traces with the salted builtin hash(); no report field may
    # depend on the salt, and none on whether asserts are compiled out
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    code = ("from planeschemes.affine import partitions_iter\n"
            "from planeschemes.report import report_digest, run_sweep\n"
            "for p in (3, 5):\n"
            "    print(report_digest(run_sweep(p, partitions_iter(p + 1))))\n")
    want = json.loads(REFERENCE.read_text())
    assert run_fresh([*flags, "-c", code]).split() == [want["p3"], want["p5"]]


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
