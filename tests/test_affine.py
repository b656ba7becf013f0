import hashlib

import numpy as np
import pytest

from oracles import count_set_partitions, enumerate_partitions_naive

from planeschemes.affine import (
    SlopePartition,
    bell_number,
    build_affine_scheme,
    fuse,
    lambda_criteria,
    partition_from_group,
    partitions_iter,
)
from planeschemes.errors import NonCanonicalPartition, UnsupportedPrime
from planeschemes.permgroup import group_closure
from planeschemes.projline import pgl_canonical, point_permutation
from planeschemes.scheme import (
    algebraic_fusion,
    is_primitive,
    is_pseudocyclic,
    merge,
    scheme_digest,
)
from planeschemes.subgroups import SubgroupSpec, find_subgroup


def test_partition_encoding():
    P = SlopePartition.from_string("0012")
    assert P.blocks() == ((0, 1), (2,), (3,))
    assert P.as_string() == "0012"
    assert SlopePartition.from_blocks([(2,), (0, 1), (3,)], 4) == P
    with pytest.raises(NonCanonicalPartition):
        SlopePartition.from_string("0102a")   # 'a' = 10 skips ids
    with pytest.raises(NonCanonicalPartition):
        SlopePartition((1, 0))


@pytest.mark.parametrize("blocks", [[(0, 1), (1, 2, 3)], [(0, 1), (3,)], [(0, 1, 2), (3, -1)],
                                    [(0, 1, 2), (3, 4)]],
                         ids=["two-blocks", "missing", "negative", "too-large"])
def test_from_blocks_rejects_what_is_no_partition_of_the_labels(blocks):
    with pytest.raises(ValueError):
        SlopePartition.from_blocks(blocks, 4)


def test_partitions_iter_counts_and_order():
    for n in range(1, 10):
        got = [P.rgs for P in partitions_iter(n)]
        assert len(got) == bell_number(n)
        assert got == sorted(got)
        assert len(set(got)) == len(got)
    assert bell_number(4) == 15
    assert bell_number(6) == 203
    assert bell_number(8) == 4140


def test_partitions_iter_against_naive_enumeration():
    for n in (1, 4, 6):
        assert {P.rgs for P in partitions_iter(n)} == enumerate_partitions_naive(n)
        assert bell_number(n) == count_set_partitions(n)


def test_affine_scheme_basics():
    X = build_affine_scheme(3)
    assert X.n == 9 and X.rank == 5
    assert set(X.valencies[1:]) == {2}
    # points (0,0) and (1,1): the line y = x has slope 1 -> color 2
    assert X.matrix[0, 1 * 3 + 1] == 2
    with pytest.raises(UnsupportedPrime):
        build_affine_scheme(4)
    with pytest.raises(UnsupportedPrime):
        build_affine_scheme(2)


def test_affine_scheme_p5_clique_structure():
    X = build_affine_scheme(5)
    for s in range(1, X.rank):
        rows, cols = np.nonzero(X.matrix == s)
        neigh = {}
        for a, b in zip(rows.tolist(), cols.tolist()):
            neigh.setdefault(a, set()).add(b)
        blocks = set()
        for a, bs in neigh.items():
            blocks.add(tuple(sorted(bs | {a})))
        assert len(blocks) == 5
        assert all(len(b) == 5 for b in blocks)


def test_fuse_examples():
    P = SlopePartition.from_string("0123")
    ident = fuse(3, P)
    assert ident.rank == 5 and P.lambda_set() == frozenset({1})
    assert np.array_equal(ident.matrix, build_affine_scheme(3).matrix)

    P = SlopePartition.from_string("0112")
    mixed = fuse(3, P)
    assert mixed.rank == 4
    assert sorted(mixed.valencies[1:]) == [2, 2, 4]
    assert P.lambda_set() == frozenset({1, 2})

    P = SlopePartition.from_string("0000")
    allin = fuse(3, P)
    assert allin.rank == 2 and P.lambda_set() == frozenset({4})


def test_valency_law():
    for p in (3, 5):
        for P in partitions_iter(p + 1):
            vals = sorted(fuse(p, P).valencies[1:])
            expect = sorted(len(b) * (p - 1) for b in P.blocks())
            assert vals == expect


def test_lambda_criteria_examples():
    assert lambda_criteria(SlopePartition.from_string("0123")) == (True, True)
    P = SlopePartition.from_string("0011")   # blocks {0,1},{2,inf}
    assert P.lambda_set() == frozenset({2})
    assert lambda_criteria(P) == (False, True)
    assert lambda_criteria(SlopePartition.from_string("0112")) == (True, False)


def test_lambda_criteria_agree_with_structure():
    for p in (3, 5):
        for P in partitions_iter(p + 1):
            X = fuse(p, P)
            imprim, pc = lambda_criteria(P)
            assert imprim == (not is_primitive(X))
            assert pc == is_pseudocyclic(X)


def test_partition_from_group_examples():
    ident = group_closure([], 4)
    assert partition_from_group(ident) == SlopePartition.from_string("0123")

    neg = point_permutation(pgl_canonical(2, 0, 0, 1, 3))   # z -> -z at p=3
    K = group_closure([neg], 4)
    assert partition_from_group(K) == SlopePartition.from_string("0112")

    cyc = tuple(list(range(1, 4)) + [0])
    K = group_closure([cyc], 4)
    assert partition_from_group(K) == SlopePartition.from_string("0000")


def test_fusion_from_group_equals_algebraic_fusion():
    specs = [SubgroupSpec("cyclic", 2), SubgroupSpec("cyclic", 3),
             SubgroupSpec("dihedral", 2), SubgroupSpec("frobenius", 2),
             SubgroupSpec("alt4"), SubgroupSpec("sym4"), SubgroupSpec("alt5")]
    for p in (3, 5, 7):
        X = build_affine_scheme(p)
        for spec in specs:
            sub = find_subgroup(p, spec)
            if sub is None:
                continue
            P = partition_from_group(sub)
            direct = fuse(p, P)
            # the induced color group: slope label l acts as color l+1
            color_gens = []
            for g in sub.generators:
                perm = [0] * (p + 2)
                for label in range(p + 1):
                    perm[label + 1] = g[label] + 1
                color_gens.append(tuple(perm))
            K = group_closure(color_gens, p + 2)
            merged = algebraic_fusion(X, K)
            assert np.array_equal(direct.matrix, merged.matrix), (p, spec)


def test_fuse_wrong_length():
    with pytest.raises(ValueError):
        fuse(5, SlopePartition.from_string("0123"))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_closed_form_tensor_is_the_block_sums(p):
    # the tensor `fuse` builds from the block sizes is the one `merge` proves
    # from AG(2,p)'s tensor, on every fusion; star and matrix too
    X = build_affine_scheme(p)
    for P in partitions_iter(p + 1):
        merged = merge(X, (0,) + tuple(b + 1 for b in P.rgs))
        F = fuse(p, P)
        assert F.tensor.dtype == np.int64 and F.star == merged.star, P
        assert np.array_equal(F.tensor, merged.tensor), P
        assert np.array_equal(F.matrix, merged.matrix), P


# sha256 over the scheme digests of every fusion in canonical order, as the
# block-sum fusion gave them: AutCache entries are keyed by these digests
FUSION_DIGESTS = {
    3: "9586b9534e0917e97afae7352d432b8a9b0576b8b324e42bb89002082a51ce41",
    5: "9c678f7cc1231dc5a9783b99f9f0ee1d355da69947f7c6296af0f17354376f87",
    7: "fa146dc8627249ffd4b4b84f7872cbe911463ba165437c3e23e4a8befa579a3f",
}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fusion_scheme_digests_are_unchanged(p):
    h = hashlib.sha256()
    for P in partitions_iter(p + 1):
        h.update(scheme_digest(fuse(p, P)).encode())
    assert h.hexdigest() == FUSION_DIGESTS[p]
