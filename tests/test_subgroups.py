from collections import Counter

import numpy as np
import pytest

from oracles import matrix_conjugates, matrix_mult_table, orbit_representatives, unique_pgl_orbit
from planeschemes.affine import SlopePartition, partition_from_group, partitions_iter
from planeschemes.classify import (
    EXCEPTIONAL_A4,
    EXCEPTIONAL_A5,
    verify_witness,
)
from planeschemes.errors import UnsupportedPrime
from planeschemes.permgroup import group_closure, perm_order
from planeschemes.projline import pgl_canonical, pgl_elements, point_permutation
from planeschemes.subgroups import (
    SubgroupSpec,
    _mult_table,
    element_order_profile,
    exceptional_subgroups,
    find_subgroup,
    generator_matrices,
    is_exceptional_group,
    lattice_subgroup,
    lemma_orbit_size_bound,
    match_exceptional_subgroup,
    match_pgl_subgroup,
    parse_spec,
    pgl_orbit,
    pgl_table,
    subgroup_lattice,
    witness_generators,
)


def test_parse_spec():
    assert parse_spec("Cyclic:4") == SubgroupSpec("cyclic", 4)
    assert parse_spec("Dihedral:3") == SubgroupSpec("dihedral", 3)
    assert parse_spec("FrobeniusPD:2") == SubgroupSpec("frobenius", 2)
    assert parse_spec("A4") == SubgroupSpec("alt4")
    assert parse_spec("S4") == SubgroupSpec("sym4")
    assert parse_spec("A5") == SubgroupSpec("alt5")
    assert parse_spec(" cyclic: 4 ") == SubgroupSpec("cyclic", 4)
    for bad in ("B7", "Cyclic", "Cyclic:", "Cyclic:x", "Dihedral:3.5", "Nonsense:3"):
        with pytest.raises(ValueError, match=f"cannot parse subgroup spec {bad!r}"):
            parse_spec(bad)
    with pytest.raises(ValueError, match="cyclic requires d >= 1"):
        parse_spec("Cyclic:0")


def test_spec_validation():
    with pytest.raises(ValueError):
        SubgroupSpec("cyclic", 0)
    with pytest.raises(ValueError):
        SubgroupSpec("dihedral", 1)
    with pytest.raises(ValueError):
        SubgroupSpec("nonsense")


def test_cyclic_subgroups():
    sub = find_subgroup(5, SubgroupSpec("cyclic", 1))
    assert sub.order() == 1
    assert sorted(partition_from_group(sub).block_sizes()) == [1] * 6

    sub = find_subgroup(5, SubgroupSpec("cyclic", 4))
    assert sub.order() == 4
    # no element of order 7 in PGL(2,5): orders divide 4, 5, or 6
    assert find_subgroup(5, SubgroupSpec("cyclic", 7)) is None


def test_dihedral_subgroups():
    sub = find_subgroup(7, SubgroupSpec("dihedral", 3))
    assert sub.order() == 6
    profile = element_order_profile(sub)
    assert profile == {1: 1, 2: 3, 3: 2}
    assert partition_from_group(sub).lambda_set() <= {2, 3, 6}


def test_frobenius_subgroups():
    sub = find_subgroup(7, SubgroupSpec("frobenius", 2))
    assert sub.order() == 14
    assert partition_from_group(sub).lambda_set() <= {1, 7}
    assert find_subgroup(7, SubgroupSpec("frobenius", 4)) is None   # 4 | 6 fails


def test_exceptional_subgroups_found():
    a4 = find_subgroup(7, SubgroupSpec("alt4"))
    assert a4.order() == 12
    profile = element_order_profile(a4)
    assert profile == {1: 1, 2: 3, 3: 8}
    assert 4 not in profile

    s4 = find_subgroup(5, SubgroupSpec("sym4"))
    assert s4.order() == 24
    assert element_order_profile(s4) == {1: 1, 2: 9, 3: 8, 4: 6}

    a5 = find_subgroup(5, SubgroupSpec("alt5"))
    assert a5.order() == 60
    # alt(5) needs p = 5 or p = +-1 mod 5
    assert find_subgroup(7, SubgroupSpec("alt5")) is None
    a5_19 = find_subgroup(19, SubgroupSpec("alt5"))
    assert a5_19 is not None and a5_19.order() == 60


def test_lemma_orbit_bounds():
    assert lemma_orbit_size_bound(SubgroupSpec("cyclic", 4), 7) == {1, 4}
    assert lemma_orbit_size_bound(SubgroupSpec("dihedral", 3), 7) == {2, 3, 6}
    assert lemma_orbit_size_bound(SubgroupSpec("frobenius", 2), 7) == {1, 7}
    # a dihedral group of order 2p is also C_p : C_2: the union applies
    assert lemma_orbit_size_bound(SubgroupSpec("dihedral", 7), 7) == {1, 2, 7, 14}


def test_subgroup_lattice_counts():
    lat3 = subgroup_lattice(3)
    assert len(lat3) == 30          # the 30 subgroups of sym(4)
    assert {len(s) for s in lat3} <= {1, 2, 3, 4, 6, 8, 12, 24}
    lat5 = subgroup_lattice(5)
    assert len(lat5) == 156         # the 156 subgroups of sym(5)
    with pytest.raises(UnsupportedPrime):
        subgroup_lattice(11)


def test_lattice_entries_are_groups():
    for ids in subgroup_lattice(3):
        sub = lattice_subgroup(3, ids)
        assert sub.degree == 4 and sub.order() == len(ids)
        assert (sub.order() == 1) == (len(ids) == 1)
        assert 24 % sub.order() == 0


def test_exceptional_enumeration():
    a4s = exceptional_subgroups(5, "alt4")
    assert len(a4s) == 5
    for sub in a4s:
        assert sub.order() == 12
    assert exceptional_subgroups(7, "alt5") == []
    a4s7 = exceptional_subgroups(7, "alt4")
    assert len(a4s7) == 14
    for sub in a4s7:
        assert sorted(partition_from_group(sub).block_sizes()) == [4, 4]
    # the conjugates of one representative are exactly the lattice's members
    counts = {}
    for p in (3, 5, 7):
        lattice = [lattice_subgroup(p, ids) for ids in subgroup_lattice(p)]
        for kind in ("alt4", "alt5"):
            found = {frozenset(s.elements) for s in exceptional_subgroups(p, kind)}
            want = {frozenset(s.elements) for s in lattice if is_exceptional_group(s, kind)}
            assert found == want, (p, kind)
            counts[p, kind] = len(found)
    assert counts == {(3, "alt4"): 1, (3, "alt5"): 0, (5, "alt4"): 5,
                      (5, "alt5"): 1, (7, "alt4"): 14, (7, "alt5"): 0}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mult_table_equals_matrix_products(p):
    assert np.array_equal(_mult_table(p), matrix_mult_table(p))


def test_conjugates_equal_matrix_conjugation():
    # generators, their matrices and elements of each conjugate, in order
    counts = {}
    for p in (5, 7, 11, 13):
        for kind in ("alt4", "alt5"):
            got = exceptional_subgroups(p, kind)
            rep = find_subgroup(p, SubgroupSpec(kind))
            want = [] if rep is None else matrix_conjugates(rep)
            assert len(got) == len(want), (p, kind)
            for sub, (mats, grp) in zip(got, want):
                assert generator_matrices(sub) == mats, (p, kind)
                assert sub.generators == grp.generators, (p, kind)
                assert sub.elements == grp.elements, (p, kind)
            counts[p, kind] = len(got)
    assert counts == {(5, "alt4"): 5, (5, "alt5"): 1, (7, "alt4"): 14, (7, "alt5"): 0,
                      (11, "alt4"): 55, (11, "alt5"): 22, (13, "alt4"): 91, (13, "alt5"): 0}


def test_block_stabiliser_matrices_are_its_elements_in_canonical_order():
    for p in (3, 5, 7):
        els = pgl_elements(p)
        perms = [point_permutation(g) for g in els]
        for P in partitions_iter(p + 1):
            K = match_pgl_subgroup(p, P)
            if K is not None:
                members = set(K.elements)
                assert generator_matrices(K) == tuple(g for g, q in zip(els, perms) if q in members)


def test_block_stabiliser_realises_exactly_the_lattice_partitions():
    counts = {}
    for p in (3, 5, 7):
        realising = {}
        for ids in subgroup_lattice(p):
            sub = lattice_subgroup(p, ids)
            realising.setdefault(partition_from_group(sub), []).append(sub)
        matched = {}
        for P in partitions_iter(p + 1):
            sub = match_pgl_subgroup(p, P)
            if sub is not None:
                matched[P] = set(sub.elements)
        assert set(matched) == set(realising), p
        for P, subs in realising.items():
            for sub in subs:
                assert set(sub.elements) <= matched[P], (p, P.as_string())
        counts[p] = len(matched)
    assert counts == {3: 15, 5: 78, 7: 248}


def test_exceptional_match_is_each_conjugate():
    """From K_P the classifier finds the alt(4)/alt(5) itself, at each p <= 31.

    Every conjugate up to p = 19, one representative beyond (a conjugate
    table there takes seconds); one kind of conjugate is transitive on the
    slopes exactly when its representative is.  alt(5) lies in PGL(2,p)
    for p = 5 and p = +-1 mod 10 only.
    """
    stabilisers = {}
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for kind in ("alt4", "alt5") if p == 5 or p % 10 in (1, 9) else ("alt4",):
            rep = find_subgroup(p, SubgroupSpec(kind))
            transitive = partition_from_group(rep).num_blocks == 1
            subs = [rep] if transitive or p > 19 else exceptional_subgroups(p, kind)
            for sub in subs:
                P = partition_from_group(sub)
                A = match_exceptional_subgroup(p, P)
                if transitive:
                    assert A is None, (p, kind)
                    continue
                assert A[0] == kind and A[1].elements == sub.elements
                K = match_pgl_subgroup(p, P)
                stabilisers[p, kind] = K.order()
                assert set(sub.elements) <= set(K.elements)
    # only at p = 17 does K_P exceed the subgroup: a sym(4) with the same
    # two orbits, 6 and 12 slopes
    assert stabilisers == {(7, "alt4"): 12, (13, "alt4"): 12, (17, "alt4"): 24,
                           (19, "alt4"): 12, (23, "alt4"): 12, (29, "alt4"): 12,
                           (31, "alt4"): 12, (31, "alt5"): 60}


def test_exceptional_witness_generates_the_subgroup():
    # the witness of every conjugate generates it; it verifies only where
    # the orbits are two blocks or more, as the classifier never calls the
    # one-block fusion exceptional
    verified = Counter()
    for p in (5, 7, 11, 13):
        for kind, verdict in (("alt4", EXCEPTIONAL_A4), ("alt5", EXCEPTIONAL_A5)):
            for sub in exceptional_subgroups(p, kind):
                gens = witness_generators(sub)
                closed = group_closure([point_permutation(g) for g in gens], p + 1)
                assert closed.elements == sub.elements, (p, kind, gens)
                witness = {"generators": [list(g.entries()) for g in gens],
                           "order": sub.order()}
                P = partition_from_group(sub)
                holds = verify_witness(p, P, verdict, witness)
                assert holds == (P.num_blocks > 1), (p, kind, P)
                verified[p, kind, holds] += 1
    assert verified == {(5, "alt4", False): 5, (5, "alt5", False): 1,
                        (7, "alt4", True): 14, (11, "alt4", False): 55,
                        (11, "alt5", False): 22, (13, "alt4", True): 91}


def test_orbit_sizes_divide_group_order():
    for p in (5, 7, 11, 13):
        for spec in (SubgroupSpec("cyclic", 3), SubgroupSpec("dihedral", 2),
                     SubgroupSpec("frobenius", 1), SubgroupSpec("alt4")):
            sub = find_subgroup(p, spec)
            if sub is None:
                continue
            P = partition_from_group(sub)
            assert sum(P.block_sizes()) == p + 1
            for s in P.lambda_set():
                assert sub.order() % s == 0


def test_unsupported_prime_bound():
    with pytest.raises(UnsupportedPrime):
        find_subgroup(37, SubgroupSpec("cyclic", 2))


def test_pgl_orbit_matches_the_unique_reference():
    # the byte keys give the members in the order np.unique(axis=0) sorts
    # them, each with the same first table row; at p=31 a key is 32 bytes
    rng = np.random.default_rng(31)
    cases = [(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    cases += [(7, P) for P in orbit_representatives(7)]
    for p, k in ((11, 20), (31, 4)):
        for _ in range(k):
            labels = rng.integers(0, rng.integers(1, p + 2), size=p + 1)
            renumber = {}
            cases.append((p, SlopePartition(tuple(renumber.setdefault(int(v), len(renumber))
                                                  for v in labels))))
    for p, P in cases:
        got, want = pgl_orbit(p, P), unique_pgl_orbit(p, P)
        assert list(got) == list(want), (p, P)
        assert list(got.values()) == list(want.values()), (p, P)


def test_a_group_outside_pgl_raises_a_value_error_that_names_it():
    # a transposition of two slopes is no Moebius map: every reader of the
    # table's row lookup raises ValueError, not KeyError or StopIteration
    G = group_closure([(1, 0, 2, 3, 4, 5)], 6)
    for fn in (generator_matrices, witness_generators):
        with pytest.raises(ValueError, match=r"\(1, 0, 2, 3, 4, 5\) is no element of PGL\(2,5\)"):
            fn(G)
    with pytest.raises(ValueError, match="PGL"):
        pgl_table(5).row((0, 1, 2, 3, 5, 4))
    assert pgl_table(5).row(range(6)) == pgl_elements(5).index(pgl_canonical(1, 0, 0, 1, 5))
