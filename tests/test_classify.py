import functools
import json
import random
from collections import Counter
from math import factorial

import numpy as np
import pytest
from conftest import run_fresh
from oracles import pgl_orbit_count

from planeschemes import classify
from planeschemes.affine import (
    SlopePartition,
    bell_number,
    canonical_rgs,
    fuse,
    fusion_matrix,
    lambda_criteria,
    partition_from_group,
    partitions_iter,
)
from planeschemes.autsearch import automorphism_group
from planeschemes.classify import (
    EXCEPTIONAL_A4,
    EXCEPTIONAL_A5,
    INVOLUTIVE,
    NON_SCHURIAN,
    PRIMITIVE_PC,
    SUBTENSOR,
    WREATH,
    UNCLASSIFIABLE,
    UNKNOWN,
    _Analyzer,
    _color_map,
    _point_map,
    _slope_map,
    _subgroup_witness,
    involutive_presentations,
    verify_witness,
)
from planeschemes.errors import BudgetExceeded, InvariantViolated
from planeschemes.permgroup import group_closure, perm_order
from planeschemes.projline import pgl_elements, point_permutation
from planeschemes.report import classify_record, record_from_dict, record_to_dict, run_sweep
from planeschemes.scheme import (
    algebraic_fusion,
    is_algebraic_map,
    is_primitive,
    is_pseudocyclic,
    parabolic_from_colors,
)
from planeschemes.subgroups import (
    SubgroupSpec,
    find_subgroup,
    match_pgl_subgroup,
    pgl_orbit,
    pgl_table,
    witness_generators,
)
from planeschemes.verifypaper import burnside_orbit_count


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
        res = _Analyzer(3).classify(P)
        assert res.verdict == want, rgs
        assert res.schurian is True
        assert verify_witness(3, P, res.verdict, res.witness)


def test_classify_flags_consistent():
    res = _Analyzer(3).classify(SlopePartition.from_string("0111"))
    assert res.primitive is False and res.aut_order == 1296
    res = _Analyzer(3).classify(SlopePartition.from_string("0000"))
    assert res.primitive and res.pseudocyclic and res.aut_order == 362880


def test_exceptional_a4_at_p7():
    a4 = find_subgroup(7, SubgroupSpec("alt4"))
    P = partition_from_group(a4)
    res = _Analyzer(7).classify(P)
    assert res.verdict == EXCEPTIONAL_A4
    assert res.primitive and res.pseudocyclic
    assert verify_witness(7, P, res.verdict, res.witness)


def test_exceptional_a4_at_p17_inside_sym4():
    # K_P is a sym(4) keeping both orbits of its alt(4); the verdict and
    # witness are the alt(4)'s, as from a table of its conjugates
    a4 = find_subgroup(17, SubgroupSpec("alt4"))
    P = partition_from_group(a4)
    assert match_pgl_subgroup(17, P).order() == 24
    res = _Analyzer(17).classify(P)
    assert res.verdict == EXCEPTIONAL_A4
    assert res.witness == {"generators": [list(g.entries()) for g in witness_generators(a4)],
                           "order": 12}
    assert verify_witness(17, P, res.verdict, res.witness)


def test_exceptional_verdict_builds_no_subgroup_lattice():
    code = (
        "from planeschemes import subgroups\n"
        "from planeschemes.affine import SlopePartition\n"
        "from planeschemes.classify import _Analyzer\n"
        "from planeschemes.subgroups import subgroup_lattice\n"
        "def no_conjugates(rep):\n"
        "    raise RuntimeError('the classifier enumerated conjugates')\n"
        "subgroups.conjugates = no_conjugates\n"
        "res = _Analyzer(7).classify(SlopePartition.from_string('00111010'))\n"
        "print(res.verdict, subgroup_lattice.cache_info().currsize)\n"
    )
    assert run_fresh(["-c", code]).split() == [EXCEPTIONAL_A4, "0"]


def test_involutive_verdict_d6_at_p7():
    d6 = find_subgroup(7, SubgroupSpec("dihedral", 3))
    P = partition_from_group(d6)
    res = _Analyzer(7).classify(P)
    assert res.verdict == INVOLUTIVE
    assert res.witness["inner"]["verdict"] == SUBTENSOR
    assert verify_witness(7, P, res.verdict, res.witness)


def test_verify_witness_fuses_only_what_it_checks(monkeypatch):
    non_schurian = SlopePartition.from_string("000112")
    involutive = SlopePartition.from_string("000011")
    res_n = _Analyzer(5).classify(non_schurian)
    res_i = _Analyzer(5).classify(involutive)
    assert (res_n.verdict, res_i.verdict) == (NON_SCHURIAN, INVOLUTIVE)
    fused = []

    def counted_fuse(p, partition):
        fused.append(partition.as_string())
        return fuse(p, partition)

    monkeypatch.setattr("planeschemes.classify.fuse", counted_fuse)
    assert verify_witness(5, non_schurian, res_n.verdict, res_n.witness) is True
    assert fused == []
    # an involutive witness fuses P and its inner partition once each
    assert verify_witness(5, involutive, res_i.verdict, res_i.witness)
    assert sorted(fused) == ["000011", res_i.witness["inner_partition"]]


def test_involutive_records_verify_in_published_form():
    # every record, not only the involutive ones, after a JSON round trip
    verdicts = Counter()
    for p in (3, 5):
        for rec in run_sweep(p, partitions_iter(p + 1)):
            back = record_from_dict(json.loads(json.dumps(record_to_dict(rec))))
            P = SlopePartition.from_string(back.partition_rgs)
            assert verify_witness(p, P, back.verdict, back.witness), (p, back.partition_rgs)
            verdicts[p] += 1
            verdicts[INVOLUTIVE] += back.verdict == INVOLUTIVE
    assert verdicts == {3: 15, 5: 203, INVOLUTIVE: 15}


def test_involutive_presentation_degenerate_for_transitive_sym4():
    # sym(4) is transitive on the 6 points of the projective line over F_5,
    # so its partition is the one-block one; P itself (the degenerate
    # presentation with the identity involution) is not a presentation
    s4 = find_subgroup(5, SubgroupSpec("sym4"))
    one = partition_from_group(s4)
    assert one == SlopePartition.from_string("000000")
    pairs = list(involutive_presentations(one))
    assert one not in [P2 for P2, _ in pairs]
    assert len(pairs) == 10
    # splitting into halves and swapping them is an algebraic involution,
    # and merging along it gives P back
    assert ("000111", (0, 2, 1)) in [(P2.as_string(), phi) for P2, phi in pairs]
    X = fuse(5, one)
    for P2, phi in pairs:
        X2 = fuse(5, P2)
        assert is_algebraic_map(X2, phi)
        assert algebraic_fusion(X2, group_closure([phi], X2.rank)) == X


def test_involutive_candidates_enumeration():
    P = SlopePartition.from_string("0011")
    cands = [P2.as_string() for P2, _ in involutive_presentations(P)]
    assert cands == ["0012", "0122", "0123"]
    assert cands == sorted(cands)
    P2 = SlopePartition.from_string("0000")
    cands2 = [c.as_string() for c, _ in involutive_presentations(P2)]
    # only equal halves: unbalanced splits cannot be merged by an involution
    assert cands2 == ["0011", "0101", "0110"]


def test_pairing_involution():
    # {2,3} or {0,1} split into singletons: their colors are swapped, the
    # color of an intact block is fixed
    P = SlopePartition.from_string("0011")
    phis = {P2.as_string(): phi for P2, phi in involutive_presentations(P)}
    assert phis == {"0012": (0, 1, 3, 2), "0122": (0, 2, 1, 3),
                    "0123": (0, 2, 1, 4, 3)}
    # a three-way split of one block cannot come from an involution
    one = SlopePartition.from_string("000000")
    assert all(P2.num_blocks == 2 for P2, _ in involutive_presentations(one))


def test_match_pgl_subgroup_examples():
    # K_P: the elements keeping every block of P
    cases = {(3, "0123"): 1,       # the discrete partition: the identity
             (3, "0112"): 2,       # z -> -z swaps 1 and 2
             (5, "000000"): 120,   # one block: the whole group
             (5, "000112"): None}  # K_P = <z -> 2 - z> splits {0,1,2}
    for (p, rgs), order in cases.items():
        P = SlopePartition.from_string(rgs)
        sub = match_pgl_subgroup(p, P)
        assert (None if sub is None else sub.order()) == order, (p, rgs)
        if sub is not None:
            assert partition_from_group(sub) == P
    # the wrong number of labels, too many or too few
    for fn, p, rgs in ((match_pgl_subgroup, 5, "0123"), (pgl_orbit, 3, "00001"),
                       (pgl_orbit, 5, "0001")):
        with pytest.raises(ValueError, match=f"labels, want {p + 1}"):
            fn(p, SlopePartition.from_string(rgs))


def test_match_pgl_subgroup_named_mode():
    # beyond the lattice's primes: the stabiliser of slope 0, of order p(p-1)
    sub = match_pgl_subgroup(11, SlopePartition.from_string("011111111111"))
    assert sub is not None and sub.order() == 110


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


def test_budget_becomes_unknown(monkeypatch):
    monkeypatch.setattr("planeschemes.classify.automorphism_group",
                        functools.partial(automorphism_group, node_cap=3))
    res = _Analyzer(3).classify(SlopePartition.from_string("0000"))
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
    good = _Analyzer(3).classify(P)
    assert good.verdict == WREATH
    assert verify_witness(3, P, WREATH, {"parabolic_colors": [0, 2]}) is False
    assert verify_witness(3, P, SUBTENSOR, {"parabolic_pair": [[0, 1], [0, 2]]}) is False
    # an involution that does not permute the colors of the inner fusion
    P = SlopePartition.from_string("000011")
    good = _Analyzer(5).classify(P)
    assert good.verdict == INVOLUTIVE
    assert good.witness["inner_partition"] == "000012"
    no_inner = {k: v for k, v in good.witness.items() if k != "inner"}
    non_basic = {"verdict": NON_SCHURIAN, "witness": {"orbital_count": 5, "rank": 4}}
    for witness in [
        dict(good.witness, color_involution=[0, 1]),
        dict(good.witness, color_involution=[0, 2, 1, 3]),   # swaps unequal valencies
        dict(good.witness, inner_partition="00001"),          # too few labels
        dict(good.witness, inner_partition="000021"),         # not canonical
        no_inner,
        dict(good.witness, inner=non_basic),
        dict(good.witness, inner={"verdict": SUBTENSOR,                  # a float inside
                                  "witness": {"parabolic_pair": [[0, 2], [0, 3.0]]}}),
    ]:
        assert verify_witness(5, P, good.verdict, witness) is False, witness

    # each witness holds with integers, and no verdict's witness holds a bool or a float
    exceptional = _Analyzer(7).classify(SlopePartition.from_string("00111010"))
    for p, rgs, verdict, witness, bad in [
        (3, "0111", WREATH, {"parabolic_colors": [0, 1]}, {"parabolic_colors": [0, True]}),
        (5, "000112", NON_SCHURIAN, {"orbital_count": 5, "rank": 4},
         {"orbital_count": 5, "rank": 4.0}),
        (3, "0000", PRIMITIVE_PC, {"lambda": [4]}, {"lambda": [4.0]}),
        (7, "00111010", EXCEPTIONAL_A4, exceptional.witness, dict(exceptional.witness, order=12.0)),
    ]:
        P = SlopePartition.from_string(rgs)
        assert verify_witness(p, P, verdict, witness), (rgs, verdict)
        assert verify_witness(p, P, verdict, bad) is False, (rgs, bad)

    # well-formed witnesses of verdicts the classifier never gives: a wreath
    # parabolic of a rank-4 and a rank-5 fusion, the trivial parabolic pair
    # (its quotient by 1_Omega is not trivial), a transitive alt(4)/alt(5),
    # a wrong order or Lambda set, a NonSchurian count no larger than the
    # rank, and an Unknown without a reason
    a4_p3, a4_p5, a5_p5 = (_subgroup_witness(find_subgroup(p, SubgroupSpec(kind)))
                           for p, kind in ((3, "alt4"), (5, "alt4"), (5, "alt5")))
    assert exceptional.verdict == EXCEPTIONAL_A4
    for p, rgs, verdict, witness in [
        (3, "0112", WREATH, {"parabolic_colors": [0, 1]}),
        (7, "01222223", WREATH, {"parabolic_colors": [0, 1]}),
        (3, "0000", SUBTENSOR, {"parabolic_pair": [[0], [0, 1]]}),
        (3, "0000", EXCEPTIONAL_A4, a4_p3),
        (5, "000000", EXCEPTIONAL_A4, a4_p5),
        (5, "000000", EXCEPTIONAL_A5, a5_p5),
        (7, "00111010", EXCEPTIONAL_A4, dict(exceptional.witness, order=999)),
        (3, "0000", PRIMITIVE_PC, {"lambda": [1, 3]}),
        (5, "000112", NON_SCHURIAN, {"orbital_count": 4, "rank": 4}),
        (3, "0000", UNKNOWN, {"reason": None}),
    ]:
        P = SlopePartition.from_string(rgs)
        assert verify_witness(p, P, verdict, witness) is False, (rgs, verdict)

    # witnesses missing a field, or holding one of the wrong shape
    for p, rgs, witness in [
        (7, "00111010", {"generators": [[0, 0, 0, 0]]}),   # a singular matrix
        (7, "00111010", {"generators": [[1, 2, 3]]}),      # three entries
        (7, "00111010", {}),
        (3, "0111", {}),
        (3, "0111", {"parabolic_colors": None}),
        (3, "0123", {}),
        (3, "0123", {"parabolic_pair": [[0, 1]]}),
    ]:
        P = SlopePartition.from_string(rgs)
        good = _Analyzer(p).classify(P)
        assert verify_witness(p, P, good.verdict, good.witness)
        assert verify_witness(p, P, good.verdict, witness) is False, (rgs, witness)


def test_malformed_witness_colors_fail_verification():
    # negative colors (-2 and -4 index the colors 1 and 1 from the end),
    # colors at or past the rank, and colors that are no integers
    for rgs, verdict, key, good_colors, bad_colors in [
        ("0111", WREATH, "parabolic_colors", [0, 1],
         [[0, -2], [0, 1, -2], [0, 3], [0, 1, 3], [0, 1.5], [0, "1"], [0, None], [0, [1]]]),
        ("0123", SUBTENSOR, "parabolic_pair", [[0, 1], [0, 2]],
         [[[0, -4], [0, 2]], [[0, 1], [0, 2, 5]], [[0, 1], [0, 2.5]], [[0, "1"], [0, 2]]]),
    ]:
        P = SlopePartition.from_string(rgs)
        good = _Analyzer(3).classify(P)
        assert (good.verdict, good.witness) == (verdict, {key: good_colors})
        for colors in bad_colors:
            assert verify_witness(3, P, verdict, {key: colors}) is False, (rgs, colors)


def test_no_verdict_is_accepted_unconditionally():
    # for each verdict, a well-typed witness that does not hold; a new
    # verdict needs an entry here
    a4, a5 = (_subgroup_witness(find_subgroup(5, SubgroupSpec(kind)))
              for kind in ("alt4", "alt5"))
    inner = {"verdict": SUBTENSOR, "witness": {"parabolic_pair": [[0, 1], [0, 2]]}}
    false_witnesses = {
        WREATH: (3, "0112", {"parabolic_colors": [0, 1]}),
        SUBTENSOR: (3, "0000", {"parabolic_pair": [[0], [0, 1]]}),
        PRIMITIVE_PC: (3, "0000", {"lambda": [1, 3]}),
        EXCEPTIONAL_A4: (5, "000000", a4),
        EXCEPTIONAL_A5: (5, "000000", dict(a5, order=12)),
        INVOLUTIVE: (3, "0011", {"inner_partition": "0012",
                                 "color_involution": [0, 1, 2, 3], "inner": inner}),
        NON_SCHURIAN: (5, "000112", {"orbital_count": 4, "rank": 4}),
        UNKNOWN: (3, "0000", {"reason": None}),
        UNCLASSIFIABLE: (3, "0000", {}),
    }
    verdicts = {v for name, v in vars(classify).items()
                if name.isupper() and not name.startswith("_") and isinstance(v, str)}
    assert set(false_witnesses) == verdicts
    for verdict, (p, rgs, witness) in false_witnesses.items():
        P = SlopePartition.from_string(rgs)
        assert verify_witness(p, P, verdict, witness) is False, verdict


def _flip_lambda(P):
    imprimitive, pseudocyclic = lambda_criteria(P)
    return not imprimitive, pseudocyclic


def test_lambda_mismatch_raises_typed_error(monkeypatch):
    monkeypatch.setattr("planeschemes.classify.lambda_criteria", _flip_lambda)
    with pytest.raises(InvariantViolated):
        _Analyzer(3).classify(SlopePartition.from_string("0111"))


def test_lambda_mismatch_raises_under_python_O():
    code = (
        "import planeschemes.classify as c\n"
        "from planeschemes.affine import SlopePartition, lambda_criteria\n"
        "from planeschemes.errors import InvariantViolated\n"
        "c.lambda_criteria = lambda P: (not lambda_criteria(P)[0], "
        "lambda_criteria(P)[1])\n"
        "try:\n"
        "    c._Analyzer(3).classify(SlopePartition.from_string('0111'))\n"
        "except InvariantViolated:\n"
        "    print('raised')\n"
    )
    assert run_fresh(["-O", "-c", code]).strip() == "raised"


def _burnside_orbit_count(p: int) -> int:
    """Orbits of PGL(2,p) on the slope partitions: the mean number fixed per element.

    A partition is fixed by g when pi_g keeps its same-block relation.
    """
    same = np.array([[[a == b for b in P.rgs] for a in P.rgs]
                     for P in partitions_iter(p + 1)])
    fixed = 0
    for g in pgl_elements(p):
        pi = np.array(point_permutation(g))
        fixed += int((same[:, pi][:, :, pi] == same).all(axis=(1, 2)).sum())
    assert fixed % (p**3 - p) == 0
    return fixed // (p**3 - p)


def test_orbit_counts_match_burnside():
    # pgl_orbit of every member gives the same members, and the orbits
    # split the Bell(p+1) partitions into as many orbits as Burnside counts
    counts = []
    for p in (3, 5, 7):
        orbits = {}
        for P in partitions_iter(p + 1):
            members = frozenset(pgl_orbit(p, P))
            assert P.rgs in members
            assert orbits.setdefault(min(members), members) == members, (p, P)
        counts.append(len(orbits))
        assert sum(len(members) for members in orbits.values()) == bell_number(p + 1)
        assert counts[-1] == _burnside_orbit_count(p) == pgl_orbit_count(p)
        assert burnside_orbit_count(p) == counts[-1]
    assert counts == [5, 13, 47]
    # the closed forms by cycle types enumerate nothing
    assert pgl_orbit_count(11) == burnside_orbit_count(11) == 3864
    assert pgl_orbit_count(13) == burnside_orbit_count(13) == 91578


def _sigma_carries(p: int, row: int, P: SlopePartition, Q: SlopePartition) -> bool:
    """Point by point: sigma maps each pair of X_Q to a pair of X_P, colors bijectively."""
    XP, XQ = fuse(p, P).matrix, fuse(p, Q).matrix
    a, b, c, d = pgl_table(p).elements[row].entries()
    sigma = [(d * x + c * y) % p * p + (b * x + a * y) % p
             for x in range(p) for y in range(p)]
    lut = {}
    for u in range(p * p):
        for v in range(p * p):
            image = int(XP[sigma[u], sigma[v]])
            if lut.setdefault(int(XQ[u, v]), image) != image:
                return False
    return len(set(lut.values())) == len(lut) == P.num_blocks + 1


def test_point_map_carries_each_orbit_member_onto_the_fusion():
    # the row given for each member carries the member's fusion onto P's; the
    # least member's is also checked pair by pair
    sample = random.Random(7).sample(list(partitions_iter(8)), 40)
    cases = [(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    matrices = {}
    for p, P in cases + [(7, P) for P in sample]:
        XP = fusion_matrix(p, P)
        orbit = pgl_orbit(p, P)
        for rgs, row in orbit.items():
            if (p, rgs) not in matrices:
                matrices[p, rgs] = fusion_matrix(p, SlopePartition(rgs))
            assert _color_map(_point_map(p, row), XP, matrices[p, rgs]) is not None, (p, P, rgs, row)
            assert canonical_rgs(P.rgs[s] for s in _slope_map(p, row)) == rgs, (p, P, rgs, row)
        Q = min(orbit)
        assert _sigma_carries(p, orbit[Q], P, SlopePartition(Q)), (p, P, orbit[Q])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_table_row_is_its_element_on_both_paths(p):
    # the Moebius permutation, its order and the row lookup agree for the
    # whole group, and so does the slope map read off the point map's colours
    t = pgl_table(p)
    assert t.elements == pgl_elements(p) and len(t.perms) == len(t.orders) == p**3 - p
    assert t.array.tolist() == [list(q) for q in t.perms]
    for i, g in enumerate(t.elements):
        assert t.perms[i] == point_permutation(g), (p, i)
        assert t.orders[i] == perm_order(t.perms[i]), (p, i)
        assert t.row(t.perms[i]) == i, (p, i)
        assert _slope_map(p, i) == t.perms[i], (p, i)


def test_carries_needs_a_color_bijection_and_an_isomorphism():
    X = fusion_matrix(3, SlopePartition.from_string("0123"))
    identity = np.arange(9)
    assert _color_map(identity, X, X).tolist() == list(range(5))
    # the colors of X_A are a function of themselves, but merge onto 0111's
    # three: a lut, not a bijection
    assert _color_map(identity, fusion_matrix(3, SlopePartition.from_string("0111")), X) is None
    # swapping (0,1) and (1,0) alone maps a vertical pair onto a slope-0 pair
    # and another vertical pair onto a vertical one: no lut at all
    swap = np.array([0, 3, 2, 1, 4, 5, 6, 7, 8])
    assert _color_map(swap, X, X) is None


def test_wrong_point_map_raises(monkeypatch):
    # 0001, analysed first, is searched; 0111 is carried from it, and the
    # identity does not map 0001 onto 0111.  The slope maps are cached per
    # (p, row): a fresh cache reads them off the patched point map, and the
    # real cache comes back with the real one
    searched, carried = SlopePartition.from_string("0001"), SlopePartition.from_string("0111")
    row = pgl_orbit(3, searched)[carried.rgs]
    assert pgl_table(3).elements[row].entries() != (1, 0, 0, 1)
    monkeypatch.setattr("planeschemes.classify._point_map", lambda p, row: np.arange(p * p))
    monkeypatch.setattr(classify, "_slope_map", functools.lru_cache(_slope_map.__wrapped__))
    analyzer = _Analyzer(3)
    analyzer.classify(searched)
    with pytest.raises(InvariantViolated):
        analyzer.classify(carried)


def test_wrong_point_map_raises_under_python_O():
    code = (
        "import numpy as np\n"
        "import planeschemes.classify as c\n"
        "from planeschemes.affine import SlopePartition\n"
        "from planeschemes.errors import InvariantViolated\n"
        "c._point_map = lambda p, row: np.arange(p * p)\n"
        "analyzer = c._Analyzer(3)\n"
        "analyzer.classify(SlopePartition.from_string('0001'))\n"
        "try:\n"
        "    analyzer.classify(SlopePartition.from_string('0111'))\n"
        "except InvariantViolated:\n"
        "    print('raised')\n"
    )
    assert run_fresh(["-O", "-c", code]).strip() == "raised"


def test_tampered_orbit_memo_element_raises():
    # the slope maps are right, but the row stored for 0111 is the identity's,
    # which keeps the searched 0001 as it is
    searched, carried = SlopePartition.from_string("0001"), SlopePartition.from_string("0111")
    analyzer = _Analyzer(3)
    analyzer.classify(searched)
    _, inv = analyzer.orbit_memo[carried.rgs]
    analyzer.orbit_memo[carried.rgs] = (pgl_table(3).row(range(4)), inv)
    with pytest.raises(InvariantViolated):
        analyzer.classify(carried)


def test_a_point_map_that_permutes_no_slopes_raises(monkeypatch):
    # swapping two points of AG(2,3) maps pairs of one slope onto two slopes
    swap = np.array([0, 3, 2, 1, 4, 5, 6, 7, 8])
    monkeypatch.setattr("planeschemes.classify._point_map", lambda p, row: swap)
    monkeypatch.setattr(classify, "_slope_map", functools.lru_cache(_slope_map.__wrapped__))
    analyzer = _Analyzer(3)
    analyzer.classify(SlopePartition.from_string("0001"))
    with pytest.raises(InvariantViolated, match="permutes no slopes"):
        analyzer.classify(SlopePartition.from_string("0111"))


def _block_keepers_per_record(p: int, records) -> tuple[np.ndarray, np.ndarray]:
    """|K_P| and the number of K_P-orbits on the slopes, for each record's P at once.

    K_P is the set of `pgl_table` rows g with P.rgs[pi_g] == P.rgs, compared
    for every record and row in one array; slope t is in the orbit of s when
    some g in K_P maps s to t, and each orbit is counted at its least slope.
    """
    table = pgl_table(p).array
    rgs = np.array([[int(c) for c in rec.partition_rgs] for rec in records], dtype=np.int8)
    keeps = (rgs[:, table] == rgs[:, None, :]).all(axis=2)             # (records, |PGL|)
    moves = (table[:, :, None] == np.arange(p + 1)).reshape(len(table), -1)
    reach = (keeps.astype(np.int64) @ moves.astype(np.int64)).reshape(-1, p + 1, p + 1) > 0
    least = ~(reach & np.tri(p + 1, k=-1, dtype=bool)).any(axis=2)
    return keeps.sum(axis=1), least.sum(axis=1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_aut_order_and_orbital_count_from_the_block_keepers(p):
    # a second path to the two numbers the orbit search carries: |Aut| is
    # p^2 (p-1) |K_P| but for four shapes of partition, and a NonSchurian
    # fusion has 1 + (K_P-orbits on slopes) 2-orbits
    shapes = {(p + 1,): factorial(p * p), (1, p): factorial(p) ** (p + 1),
              (1, 1, p - 1): factorial(p) ** 2, (2, p - 1): 2 * factorial(p) ** 2}
    records = _sweep(p)
    orders, orbit_counts = _block_keepers_per_record(p, records)
    nonschurian = 0
    for rec, order, count in zip(records, orders.tolist(), orbit_counts.tolist()):
        P = SlopePartition.from_string(rec.partition_rgs)
        want = shapes.get(tuple(sorted(P.block_sizes())), p * p * (p - 1) * order)
        assert rec.aut_order == want, (p, P)
        if rec.verdict == NON_SCHURIAN:
            nonschurian += 1
            assert rec.witness["orbital_count"] == 1 + count, (p, P)
    assert nonschurian == {3: 0, 5: 125, 7: 3892}[p]


def test_classify_fuses_only_its_own_partition(monkeypatch):
    # the orbit search runs on the record's own fusion, never on another member's
    fused = Counter()

    def counted_fuse(p, P):
        fused[P.as_string()] += 1
        return fuse(p, P)

    monkeypatch.setattr("planeschemes.classify.fuse", counted_fuse)
    res = _Analyzer(3).classify(SlopePartition.from_string("0111"))
    assert (res.verdict, res.aut_order) == (WREATH, 1296)
    assert fused == {"0111": 1}


def test_a_carried_non_schurian_member_fuses_nothing(monkeypatch):
    analyzer, P = _Analyzer(5), SlopePartition.from_string("000112")
    assert analyzer.classify(P).verdict == NON_SCHURIAN
    fused = []

    def counted_fuse(p, partition):
        fused.append(partition.as_string())
        return fuse(p, partition)

    monkeypatch.setattr("planeschemes.classify.fuse", counted_fuse)
    members = [SlopePartition(rgs) for rgs in pgl_orbit(5, P) if rgs != P.rgs]
    assert len(members) > 1
    for Q in members:
        rec = analyzer.classify(Q)
        assert (rec.verdict, rec.aut_order) == (NON_SCHURIAN, analyzer.basic_memo[P.rgs].aut_order)
    assert fused == []


@functools.lru_cache(maxsize=None)
def _sweep(p: int) -> tuple:
    """The records of a serial sweep of every fusion at p, made once per test session."""
    return tuple(run_sweep(p, partitions_iter(p + 1)))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_record_has_its_own_fusions_flags(p):
    # primitivity and pseudocyclicity, carried from each orbit's search, are
    # those of each fusion's own scheme
    records = _sweep(p)
    assert len(records) == bell_number(p + 1)
    for rec in records:
        X = fuse(p, SlopePartition.from_string(rec.partition_rgs))
        assert (rec.primitive, rec.pseudocyclic) == (is_primitive(X), is_pseudocyclic(X)), rec
    assert sum(rec.schurian is False for rec in records) == {3: 0, 5: 125, 7: 3892}[p]


@pytest.mark.parametrize("p,step", [(3, 1), (5, 1), (7, 20)])
def test_every_record_is_the_record_of_a_search_on_its_own_fusion(p, step):
    # a fresh analyzer searches its first partition's orbit on that partition,
    # so nothing is carried to it: the oracle for every carried record
    for rec in _sweep(p)[::step]:
        P = SlopePartition.from_string(rec.partition_rgs)
        assert classify_record(_Analyzer(p), P) == rec, rec.partition_rgs


def test_subtensor_check_tests_each_color_set_once(monkeypatch):
    calls = []

    def counted(X, colors):
        calls.append(sorted(colors))
        return parabolic_from_colors(X, colors)

    P = SlopePartition.from_string("0123")
    rec = run_sweep(3, [P])[0]
    assert rec.verdict == SUBTENSOR
    monkeypatch.setattr("planeschemes.classify.parabolic_from_colors", counted)
    monkeypatch.setattr("planeschemes.scheme.parabolic_from_colors", counted)
    assert verify_witness(3, P, rec.verdict, rec.witness)
    assert calls == [sorted(c) for c in rec.witness["parabolic_pair"]]


def test_budget_makes_whole_orbit_unknown(monkeypatch):
    searched = []

    def capped(X, **kw):
        searched.append(X)
        return automorphism_group(X, node_cap=3, **kw)

    monkeypatch.setattr("planeschemes.classify.automorphism_group", capped)
    analyzer = _Analyzer(5)
    by_orbit = {}
    for P in partitions_iter(6):
        res = analyzer.classify(P)
        by_orbit.setdefault(min(pgl_orbit(5, P)), []).append(res)
    assert len(searched) == len(by_orbit) == 13
    unknown = [members for members in by_orbit.values()
               if any(r.verdict == UNKNOWN for r in members)]
    assert any(len(members) > 1 for members in unknown)
    for members in unknown:
        assert all(r.verdict == UNKNOWN and r.schurian is None and r.aut_order is None
                   for r in members)
        assert len({r.witness["reason"] for r in members}) == 1
