"""Acceptance criteria, one test per criterion, exact tolerances.

Criterion 6 runs the full classification sweep at p = 7 (4140 fusions) and
is the long pole of the suite; everything else finishes in seconds.
"""

import math

import pytest

from planeschemes import verifypaper
from planeschemes.affine import SlopePartition, fuse, partition_from_group, partitions_iter
from planeschemes.report import report_digest, run_sweep
from planeschemes.scheme import Scheme
from planeschemes.subgroups import exceptional_subgroups, match_pgl_subgroup, pgl_orbit
from planeschemes.verifypaper import (
    check_aaut_full,
    check_affine_laws,
    check_determinism,
    check_exceptional,
    check_golfand,
    check_group_orders_p3,
    check_lambda_criteria,
    check_main_sweep,
    check_orbit_tables,
    check_theorem_realization,
)


def test_criterion_1_affine_scheme_laws():
    ok, detail = check_affine_laws((3, 5, 7, 11, 13))
    assert ok, detail


def test_criterion_2_golfand_fusion_property():
    ok, detail = check_golfand((3, 5), random_p7=500)
    assert ok, detail


def test_golfand_check_does_not_take_fuse_on_trust(monkeypatch):
    # one block-sum fusion with a wrong intersection number fails the check
    tampered = SlopePartition.from_string("0112")

    def bad_fuse(p, P):
        X = fuse(p, P)
        if (p, P) != (3, tampered):
            return X
        tensor = X.tensor.copy()
        tensor[1, 1, 0] += 1
        return Scheme(X.matrix, X.star, tensor)

    monkeypatch.setattr(verifypaper, "fuse", bad_fuse)
    ok, detail = check_golfand((3,), random_p7=0)
    assert not ok and "0112" in detail
    ok, _ = check_golfand((5,), random_p7=0)
    assert ok


def test_criterion_3_full_algebraic_automorphism_group():
    ok, detail = check_aaut_full((3, 5))
    assert ok, detail


def test_criterion_4_lambda_criteria():
    ok, detail = check_lambda_criteria((3, 5))
    assert ok, detail


def test_criterion_5_orbit_size_tables():
    ok, detail = check_orbit_tables((5, 7, 11, 13))
    assert ok, detail


@pytest.fixture(scope="module")
def p7_records():
    return run_sweep(7, partitions_iter(8), jobs=2)


def test_criterion_6_main_theorem_sweep(p7_records):
    ok, detail = check_main_sweep((3, 5))
    assert ok, detail
    assert len(p7_records) == 4140
    bad = [r for r in p7_records if r.error is not None
           or r.verdict in ("Unknown", "UnclassifiableSchurian")]
    assert not bad, f"{len(bad)} bad records at p=7, first {bad[:1]}"


def test_criterion_7_theorem_realization():
    ok, detail = check_theorem_realization((3, 5))
    assert ok, detail


def test_criterion_8_group_orders_p3():
    ok, detail = check_group_orders_p3()
    assert ok, detail


def test_criterion_9_exceptional_schemes():
    ok, detail = check_exceptional()
    assert ok, detail


def test_exceptional_check_fails_on_transitive_subgroups():
    # alt(4) and alt(5) are transitive on the 6 slopes at p=5: one block
    ok, detail = check_exceptional((5,))
    assert not ok and "000000" in detail


def test_run_checks_takes_only_the_two_levels(monkeypatch):
    calls = []
    monkeypatch.setattr(verifypaper, "CHECKS", [
        ("stub", lambda: calls.append("quick") or (True, "quick"),
         lambda: calls.append("full") or (True, "full"))])
    for level in ("Quick", "FULL", "", "fast"):
        with pytest.raises(ValueError, match="level"):
            verifypaper.run_checks(level)
    assert calls == []
    assert [r.detail for r in verifypaper.run_checks("quick")] == ["quick"]
    assert [r.detail for r in verifypaper.run_checks("full")] == ["full"]


def test_criterion_10_report_determinism():
    ok, detail = check_determinism(p=3, jobs=2)
    assert ok, detail
    # and across worker counts at p=5
    seq = run_sweep(5, partitions_iter(6), jobs=1)
    par = run_sweep(5, partitions_iter(6), jobs=2)
    assert report_digest(seq) == report_digest(par)


def test_p7_sweep_verdict_distribution(p7_records):
    """Companion pin for criterion 6: the exact verdict counts at p = 7."""
    records = p7_records
    counts = {}
    for r in records:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    assert counts == {
        "NonSchurian": 3892,
        "InvolutiveOf": 98,
        "SubtensorOfTrivial": 85,
        "PrimitivePseudocyclic": 43,
        "ExceptionalA4": 14,
        "WreathOfTrivial": 8,
    }
    assert sum(counts.values()) == 4140
    # the report bytes are a public contract
    assert report_digest(records) == (
        "e816a80a660ad6a358e85bcd4aac6b1d61b0c701a2bb28701f82e6a669651d67")
    # the big-group fusions carry the orders from the 2-closed classification
    by_rgs = {r.partition_rgs: r for r in records}
    assert by_rgs["00000000"].aut_order == math.factorial(49)
    assert by_rgs["01111111"].aut_order == math.factorial(7) ** 7 * math.factorial(7)
    assert by_rgs["01222222"].aut_order == math.factorial(7) ** 2
    assert by_rgs["00111111"].aut_order == 2 * math.factorial(7) ** 2


def test_p7_schurian_iff_block_stabiliser_realises(p7_records):
    """Criterion 7 at p = 7: schurian exactly when K_P has the blocks as orbits."""
    schurian = 0
    for r in p7_records:
        realised = match_pgl_subgroup(7, SlopePartition.from_string(r.partition_rgs))
        assert r.schurian is (realised is not None), r.partition_rgs
        schurian += r.schurian
    assert len(p7_records) == 4140 and schurian == 248


def test_p7_exceptional_records_are_the_conjugates_orbit_fusions(p7_records):
    """The classifier reads K_P; the conjugates of one alt(4)/alt(5) are the reference."""
    want = {}
    for verdict, kind in (("ExceptionalA4", "alt4"), ("ExceptionalA5", "alt5")):
        for sub in exceptional_subgroups(7, kind):
            P = partition_from_group(sub.group)
            if P.num_blocks > 1:
                want[P.as_string()] = (verdict, {
                    "generators": [list(g.entries()) for g in sub.witness_generators()],
                    "order": sub.order()})
    got = {r.partition_rgs: (r.verdict, r.witness) for r in p7_records
           if r.verdict in ("ExceptionalA4", "ExceptionalA5")}
    assert len(want) == 14
    assert got == want


def test_p7_orbit_members_agree(p7_records):
    """The invariants carried along each PGL(2,7) orbit agree on all its members."""
    by_orbit = {}
    for r in p7_records:
        Q = SlopePartition(min(pgl_orbit(7, SlopePartition.from_string(r.partition_rgs))))
        by_orbit.setdefault(Q, set()).add(
            (r.verdict, r.aut_order, r.schurian, r.primitive, r.pseudocyclic))
    assert len(by_orbit) == 47
    assert all(len(shared) == 1 for shared in by_orbit.values()), [
        (Q.as_string(), shared) for Q, shared in by_orbit.items() if len(shared) > 1]
