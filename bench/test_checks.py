"""Each check of the benchmark rejects a record corrupted to break it.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import planeschemes as ps  # noqa: E402
from planeschemes.report import record_to_dict  # noqa: E402

from checks import (PrimeTables, bell_number, check_pass, check_record,  # noqa: E402
                    moebius_group, refinement_trace, set_partitions)
from spans import aggregate  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def sweep(p, rgs_list, cache=None):
    parts = [ps.SlopePartition.from_string(s) for s in rgs_list]
    recs = ps.run_sweep(p, parts, cache=cache)
    return [record_to_dict(r) for r in recs], ps.report_digest(recs)


@pytest.fixture(scope="module")
def p3():
    tables = PrimeTables(3)
    given = set_partitions(4)
    records, digest = sweep(3, given)
    return tables, given, records, digest


@pytest.fixture(scope="module")
def p5_pair():
    """One schurian and one non-schurian record at p=5."""
    tables = PrimeTables(5)
    records, _ = sweep(5, ["000000", "000112"])
    return tables, {r["partition_rgs"]: r for r in records}


def test_own_tables_match_known_counts():
    assert len(set_partitions(6)) == 203
    assert [bell_number(m) for m in range(1, 9)] == [1, 2, 5, 15, 52, 203, 877, 4140]
    assert all(bell_number(m) == len(set_partitions(m)) for m in range(1, 8))
    assert set_partitions(6) == [P.as_string() for P in ps.partitions_iter(6)]
    assert len(moebius_group(7)) == 336
    assert len(set(PrimeTables(5).orbit_of.values())) == 13
    assert len(set(PrimeTables(7).orbit_of.values())) == 47


def test_refinement_trace_is_invariant_under_relabelling():
    tables = PrimeTables(5)
    layers = tables.fused_layers("001122")
    perm = np.random.default_rng(0).permutation(25)
    relabelled = layers[:, perm][:, :, perm]
    start = np.zeros(25, dtype=np.int64)
    start[3] = 1
    moved = start[perm]
    assert refinement_trace(layers, start) == refinement_trace(relabelled, moved)


def test_a_genuine_sweep_passes(p3):
    tables, given, records, digest = p3
    failed, problems = check_pass(tables, given, records, digest, REFERENCE["p3"],
                                  full_sweep=True)
    assert (failed, problems) == (set(), [])


def _fails(tables, given, records, digest=None, reference=None, letter=None):
    failed, problems = check_pass(tables, given, records, digest or "x",
                                  reference, full_sweep=True)
    assert failed, "the corruption was not caught"
    if letter:
        assert any(msg.startswith(f"({letter})") for msg in problems), problems
    return failed


def test_a_missing_or_repeated_record(p3):
    tables, given, records, _ = p3
    failed, _ = check_pass(tables, given, records[1:], "x")
    assert failed == {records[0]["partition_rgs"]}
    # a full sweep short of Bell(p+1) records fails as a whole
    assert _fails(tables, given, records[1:], letter="a") == set(given)
    _fails(tables, given, records[:-1] + [records[0]], letter="a")


@pytest.mark.parametrize("field,value", [("error", "boom"), ("verdict", "Unknown"),
                                         ("verdict", "UnclassifiableSchurian")])
def test_b_errors_and_undecided_verdicts(p3, field, value):
    tables, given, records, _ = p3
    bad = copy.deepcopy(records)
    bad[4][field] = value
    assert _fails(tables, given, bad, letter="b") == {bad[4]["partition_rgs"]}


def test_c_schurian_fusion_reported_non_schurian(p5_pair):
    tables, recs = p5_pair
    rec = dict(recs["000000"], schurian=False, verdict="NonSchurian")
    assert any(m.startswith("(c)") for m in check_record(tables, rec))


def test_c_non_schurian_fusion_reported_schurian(p5_pair):
    tables, recs = p5_pair
    assert recs["000112"]["verdict"] == "NonSchurian"
    rec = dict(recs["000112"], schurian=True, verdict="InvolutiveOf")
    assert any(m.startswith("(c)") for m in check_record(tables, rec))


def test_c_undecided_schurity_fails(p3):
    tables, _, records, _ = p3
    rec = records[2]
    own = PrimeTables(3)
    own._schurian_test[rec["partition_rgs"]] = None
    assert any(m.startswith("(c)") for m in check_record(own, rec))


@pytest.mark.parametrize("order", [1, None, "12"])
def test_d_aut_order_must_carry_the_known_subgroup(p3, order):
    tables, _, records, _ = p3
    rec = dict(records[3], aut_order=order)
    assert any(m.startswith("(d)") for m in check_record(tables, rec))


def test_d_schurian_order_must_carry_n_lcm_valencies(p5_pair):
    tables, recs = p5_pair
    own = PrimeTables(5)
    own._stabiliser_order["000000"] = 1     # leave only the n lcm test to fail
    rec = dict(recs["000000"], aut_order=25 * 4)
    problems = check_record(own, rec)
    assert problems and all("lcm" in m for m in problems)


@pytest.mark.parametrize("field,value", [("primitive", None), ("pseudocyclic", None),
                                         ("rank", 9), ("valencies", [1]), ("lambda", [])])
def test_e_flags_and_parameters(p3, field, value):
    tables, _, records, _ = p3
    rec = records[5]
    bad = dict(rec, **{field: value if value is not None else not rec[field]})
    assert any(m.startswith("(e)") for m in check_record(tables, bad))


def test_f_orbit_members_must_agree(p3):
    tables, given, records, _ = p3
    bad = copy.deepcopy(records)
    orbit = tables.orbit_of
    i, j = next((i, j) for i in range(len(bad)) for j in range(i + 1, len(bad))
                if orbit[bad[i]["partition_rgs"]] == orbit[bad[j]["partition_rgs"]])
    bad[j]["aut_order"] *= 2          # still a multiple of every lower bound
    failed = _fails(tables, given, bad, letter="f")
    assert {bad[i]["partition_rgs"], bad[j]["partition_rgs"]} <= failed


def test_g_digest_must_match_the_reference(p3):
    tables, given, records, digest = p3
    assert digest == REFERENCE["p3"]
    assert _fails(tables, given, records, "0" * 64, REFERENCE["p3"], "g") == set(given)


def test_tampered_cache_entry_is_caught(tmp_path):
    """An AutCache entry whose generators were emptied flips 0111 at p=3."""
    cache = ps.AutCache(str(tmp_path))
    (good,), _ = sweep(3, ["0111"], cache)
    assert good["verdict"] == "WreathOfTrivial" and good["aut_order"] == 1296
    for entry in tmp_path.glob("*.json"):
        data = json.loads(entry.read_text())
        data["generators"] = []
        entry.write_text(json.dumps(data))
    (bad,), _ = sweep(3, ["0111"], cache)
    # the library accepts the entry and its own witness check passes
    assert (bad["verdict"], bad["aut_order"], bad["error"]) == ("NonSchurian", 1, None)
    problems = check_record(PrimeTables(3), bad)
    assert {m[:3] for m in problems} == {"(c)", "(d)"}


def test_aggregate_subtracts_children_and_counts_recursion_once():
    spans = [["a", 0.0, 1.0, -1, True],
             ["b", 0.1, 0.4, 0, True],
             ["b", 0.2, 0.3, 1, False],
             ["c", 0.5, 0.7, 0, True]]
    agg = aggregate(spans)
    assert agg["a.calls"] == 1 and agg["b.calls"] == 2
    assert agg["a.self_ms"] == pytest.approx(500.0)
    assert agg["b.ms"] == pytest.approx(300.0)
    assert agg["b.self_ms"] == pytest.approx(300.0)
    assert agg["c.self_ms"] == pytest.approx(200.0)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "p5-sweep-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
