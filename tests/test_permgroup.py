import math
import random

import pytest

from planeschemes.affine import partition_from_group
from planeschemes.errors import ClosureBudgetExceeded
from planeschemes.permgroup import (
    StabilizerChain,
    compose,
    group_closure,
    orbits,
    perm_order,
)
from planeschemes.projline import pgl_canonical, pgl_elements, point_permutation


def test_closure_examples():
    assert group_closure([], 4).order() == 1
    assert group_closure([(1, 0, 2)], 3).order() == 2
    p = 5
    gens = [
        point_permutation(pgl_canonical(1, 1, 0, 1, p)),   # z -> z+1
        point_permutation(pgl_canonical(0, 1, 1, 0, p)),   # z -> 1/z
        point_permutation(pgl_canonical(2, 0, 0, 1, p)),   # z -> z/2
    ]
    assert group_closure(gens, p + 1).order() == p**3 - p


def test_closure_pgl_orders():
    for p in (3, 5, 7):
        gens = [
            point_permutation(pgl_canonical(1, 1, 0, 1, p)),
            point_permutation(pgl_canonical(0, 1, 1, 0, p)),
            point_permutation(pgl_canonical(2, 0, 0, 1, p)),
        ]
        grp = group_closure(gens, p + 1)
        assert len(grp.elements) == p**3 - p
        # inverse- and composition-closed, identity included
        elements = set(grp.elements)
        assert tuple(range(p + 1)) in elements
        some = list(elements)[:20]
        for a in some:
            # the inverse of a lists the points in the order of their images
            assert tuple(sorted(range(p + 1), key=a.__getitem__)) in elements
            for b in some[:5]:
                assert compose(a, b) in elements


def test_closure_budget():
    n = 9
    cyc = tuple(list(range(1, n)) + [0])
    tr = tuple([1, 0] + list(range(2, n)))
    with pytest.raises(ClosureBudgetExceeded):
        group_closure([cyc, tr], n, cap=1000)


def test_orbits_union_find():
    neg5 = point_permutation(pgl_canonical(4, 0, 0, 1, 5))   # z -> -z
    group = group_closure([neg5], 6)
    P = partition_from_group(group)
    assert sorted(P.block_sizes()) == [1, 1, 2, 2]
    assert P.lambda_set() == frozenset({1, 2})
    assert orbits(group.generators, 6) == [[0], [1, 4], [2, 3], [5]]
    assert P.blocks() == ((0,), (1, 4), (2, 3), (5,))


def test_orbit_partition_trivial():
    assert orbits([], 4) == [[0], [1], [2], [3]]


def test_chain_orders_match_brute_force():
    rng = random.Random(3)
    for n in (4, 5, 6, 7, 8):
        for _ in range(4):
            gens = [tuple(rng.sample(range(n), n)) for _ in range(2)]
            order = StabilizerChain(gens, n).order()
            closure = group_closure(gens, n)
            assert order == closure.order()


def test_chain_fundamental_orbits():
    n = 6
    cyc = tuple(list(range(1, n)) + [0])
    tr = tuple([1, 0] + list(range(2, n)))
    chain = StabilizerChain([cyc, tr], n)
    assert chain.order() == math.factorial(n)
    prod = 1
    for length in chain.fundamental_orbit_lengths():
        prod *= length
    assert prod == chain.order()
    assert chain.contains(cyc) and chain.contains(tr)


def test_chain_membership():
    n = 5
    even = [(1, 0, 3, 2, 4), (0, 2, 1, 4, 3)]
    chain = StabilizerChain(even, n)
    # alternating-group sized subgroup: no odd permutation is a member
    assert chain.order() % 2 == 0
    transposition = (1, 0, 2, 3, 4)
    if not chain.contains(transposition):
        assert chain.order() <= math.factorial(n) // 2


def test_perm_order():
    assert perm_order((1, 0, 2)) == 2
    assert perm_order((1, 2, 0)) == 3
    assert perm_order((1, 0, 3, 4, 2)) == 6
