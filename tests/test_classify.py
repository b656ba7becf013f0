import os
import subprocess
import sys
from collections import Counter

import pytest

from planeschemes.affine import (
    SlopePartition,
    lambda_criteria,
    partition_from_group,
    partitions_iter,
)
from planeschemes.classify import (
    EXCEPTIONAL_A4,
    INVOLUTIVE,
    NON_SCHURIAN,
    PRIMITIVE_PC,
    SUBTENSOR,
    WREATH,
    ClassificationResult,
    classify,
    find_involutive_presentation,
    involutive_candidates,
    match_pgl_subgroup,
    pairing_involution,
    verify_witness,
)
from planeschemes.errors import BudgetExceeded, InvariantViolated
from planeschemes.report import run_sweep
from planeschemes.subgroups import SubgroupSpec, find_subgroup


def test_classify_p3_examples():
    cases = {
        "0000": PRIMITIVE_PC,      # one block: the trivial scheme
        "0123": SUBTENSOR,         # the affine scheme itself
        "0111": WREATH,            # blocks {0},{1,2,inf}
        "0001": WREATH,            # blocks {0,1,2},{inf}
        "0112": SUBTENSOR,         # the grid fusion
        "0110": PRIMITIVE_PC,      # the Hamming scheme
    }
    for rgs, want in cases.items():
        P = SlopePartition.from_string(rgs)
        res = classify(3, P)
        assert res.verdict == want, rgs
        assert res.schurian is True
        assert verify_witness(3, P, res)


def test_classify_flags_consistent():
    res = classify(3, SlopePartition.from_string("0111"))
    assert res.primitive is False and res.aut_order == 1296
    res = classify(3, SlopePartition.from_string("0000"))
    assert res.primitive and res.pseudocyclic and res.aut_order == 362880


def test_exceptional_a4_at_p7():
    a4 = find_subgroup(7, SubgroupSpec("alt4"))
    P = partition_from_group(a4.group)
    res = classify(7, P)
    assert res.verdict == EXCEPTIONAL_A4
    assert res.primitive and res.pseudocyclic
    assert verify_witness(7, P, res)


def test_involutive_verdict_d6_at_p7():
    d6 = find_subgroup(7, SubgroupSpec("dihedral", 3))
    P = partition_from_group(d6.group)
    res = classify(7, P)
    assert res.verdict == INVOLUTIVE
    assert res.inner is not None and res.inner.verdict == SUBTENSOR
    assert verify_witness(7, P, res)


def test_involutive_presentation_degenerate_for_transitive_sym4():
    # sym(4) is transitive on the 6 points of the projective line over F_5,
    # so its partition is the one-block one and the canonical-order search
    # returns the degenerate presentation (P itself, identity involution)
    s4 = find_subgroup(5, SubgroupSpec("sym4"))
    P = partition_from_group(s4.group)
    assert P == SlopePartition.from_string("000000")
    inner, phi = find_involutive_presentation(5, P)
    assert inner == P
    assert phi == (0, 1)

    # the intended alt(4)-style presentation is nevertheless valid:
    # splitting into halves and swapping them is an algebraic involution
    from planeschemes.affine import fuse
    from planeschemes.scheme import is_algebraic_map

    half = SlopePartition.from_string("000111")
    phi2 = pairing_involution(P, half)
    assert phi2 == (0, 2, 1)
    assert is_algebraic_map(fuse(5, half).scheme, phi2)


def test_involutive_candidates_enumeration():
    P = SlopePartition.from_string("0011")
    cands = [c.as_string() for c in involutive_candidates(P)]
    assert set(cands) == {"0011", "0012", "0122", "0123"}
    assert cands == sorted(cands)
    P2 = SlopePartition.from_string("0000")
    cands2 = [c.as_string() for c in involutive_candidates(P2)]
    # only equal halves: unbalanced splits cannot be merged by an involution
    assert set(cands2) == {"0000", "0011", "0101", "0110"}


def test_pairing_involution():
    P = SlopePartition.from_string("0011")
    # {2,3} split into singletons: swap their colors, fix the {0,1} color
    assert pairing_involution(P, SlopePartition.from_string("0012")) == (0, 1, 3, 2)
    assert pairing_involution(P, SlopePartition.from_string("0123")) == (0, 2, 1, 4, 3)
    # not a refinement of P at all
    assert pairing_involution(P, SlopePartition.from_string("0102")) is None
    # a three-way split of one block cannot come from an involution
    one = SlopePartition.from_string("000000")
    assert pairing_involution(one, SlopePartition.from_string("001122")) is None


def test_match_pgl_subgroup_examples():
    subs = match_pgl_subgroup(3, SlopePartition.from_string("0123"))
    assert len(subs) == 1 and subs[0].order() == 1

    subs = match_pgl_subgroup(3, SlopePartition.from_string("0112"))
    orders = sorted(s.order() for s in subs)
    assert 2 in orders   # includes the group generated by z -> -z

    subs = match_pgl_subgroup(5, SlopePartition.from_string("000000"))
    orders = [s.order() for s in subs]
    assert 120 in orders               # the whole group
    assert all(o >= 5 for o in orders)  # transitive subgroups only


def test_match_pgl_subgroup_named_mode():
    subs = match_pgl_subgroup(11, SlopePartition.from_string("011111111111"),
                              exhaustive=False)
    assert subs and all(s.order() % 11 == 0 for s in subs)


def test_sweep_p3_counts():
    records = run_sweep(3, partitions_iter(4))
    assert [r.error for r in records if r.error is not None] == []
    verdicts = Counter(r.verdict for r in records)
    assert verdicts == Counter({SUBTENSOR: 7, WREATH: 4, PRIMITIVE_PC: 4})


def test_sweep_p5_counts():
    records = run_sweep(5, partitions_iter(6))
    assert [r.error for r in records if r.error is not None] == []
    verdicts = Counter(r.verdict for r in records)
    assert verdicts == Counter({
        NON_SCHURIAN: 125,
        SUBTENSOR: 31,
        PRIMITIVE_PC: 26,
        INVOLUTIVE: 15,
        WREATH: 6,
    })


def test_verdict_disjointness():
    # imprimitive verdicts never carry the primitive flag
    for p in (3, 5):
        for rec in run_sweep(p, partitions_iter(p + 1)):
            if rec.verdict in (WREATH, SUBTENSOR):
                assert rec.primitive is False


def test_budget_becomes_unknown():
    res = classify(3, SlopePartition.from_string("0000"), node_cap=3)
    assert res.verdict == "Unknown"
    assert res.schurian is None and res.aut_order is None


def test_budget_propagates_from_is_schurian():
    from planeschemes.autsearch import is_schurian
    from planeschemes.scheme import trivial_scheme

    with pytest.raises(BudgetExceeded):
        is_schurian(trivial_scheme(9), node_cap=3)


def test_malformed_witness_fails_verification():
    # at p=3, 0111 has parabolics {0}, {0,1}, {0,1,2}; {0,2} is none of them
    P = SlopePartition.from_string("0111")
    good = classify(3, P)
    assert good.verdict == WREATH
    bad = ClassificationResult(WREATH, {"parabolic_colors": [0, 2]},
                               False, False, True, good.aut_order)
    assert verify_witness(3, P, bad) is False
    bad = ClassificationResult(SUBTENSOR, {"parabolic_pair": [[0, 1], [0, 2]]},
                               False, False, True, good.aut_order)
    assert verify_witness(3, P, bad) is False
    # an involution that does not permute the colors of the inner fusion
    P = SlopePartition.from_string("000011")
    good = classify(5, P)
    assert good.verdict == INVOLUTIVE
    bad = ClassificationResult(
        INVOLUTIVE, dict(good.witness, color_involution=[0, 1]),
        True, False, True, good.aut_order, good.inner)
    assert verify_witness(5, P, bad) is False


def _flip_lambda(rec):
    imprimitive, pseudocyclic = lambda_criteria(rec)
    return not imprimitive, pseudocyclic


def test_lambda_mismatch_raises_typed_error(monkeypatch):
    # the package's classify function shadows the module of the same name
    monkeypatch.setattr(sys.modules["planeschemes.classify"], "lambda_criteria",
                        _flip_lambda)
    with pytest.raises(InvariantViolated):
        classify(3, SlopePartition.from_string("0111"))


def test_lambda_mismatch_raises_under_python_O():
    code = (
        "import importlib\n"
        "c = importlib.import_module('planeschemes.classify')\n"
        "from planeschemes.affine import SlopePartition, lambda_criteria\n"
        "from planeschemes.errors import InvariantViolated\n"
        "c.lambda_criteria = lambda rec: (not lambda_criteria(rec)[0], "
        "lambda_criteria(rec)[1])\n"
        "try:\n"
        "    c.classify(3, SlopePartition.from_string('0111'))\n"
        "except InvariantViolated:\n"
        "    print('raised')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
