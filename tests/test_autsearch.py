import math

import numpy as np
import pytest

from oracles import brute_force_aut_order

from planeschemes.affine import SlopePartition, build_affine_scheme, fuse, partitions_iter
from planeschemes.autsearch import (
    automorphism_group,
    is_schurian,
    orbital_count,
    orbitals,
    refine,
)
from planeschemes.errors import BudgetExceeded, InvariantViolated
from planeschemes.scheme import tensor_product, trivial_scheme, wreath_product


def test_refine_examples():
    X = build_affine_scheme(5)
    col = refine(X, np.zeros(25, dtype=int))
    assert col.max() == 0                       # homogeneous: stays uniform

    T = trivial_scheme(6)
    init = np.zeros(6, dtype=int)
    init[2] = 1
    col = refine(T, init)
    assert sorted(np.bincount(col).tolist()) == [1, 5]

    wreath = fuse(3, SlopePartition.from_string("0111")).scheme
    init = np.zeros(9, dtype=int)
    init[0] = 1
    col = refine(wreath, init)
    assert sorted(np.bincount(col).tolist()) == [1, 2, 6]


def test_refine_never_merges_and_idempotent():
    X = fuse(5, SlopePartition.from_string("001122")).scheme
    init = np.zeros(25, dtype=int)
    init[3] = 1
    col = refine(X, init)
    again = refine(X, col)
    assert np.array_equal(col, again)
    # initial cells stay apart
    assert col[3] != col[0]


def test_trivial_scheme_full_symmetric():
    aut = automorphism_group(trivial_scheme(9))
    assert aut.order == math.factorial(9)


@pytest.mark.parametrize(
    "rgs,expect",
    [
        ("0000", math.factorial(9)),   # trivial
        ("0110", 72),                  # Hamming scheme: sym(3) wr sym(2)
        ("0111", 1296),                # wreath: sym(3) wr sym(3)
        ("0112", 36),                  # grid: sym(3) x sym(3)
        ("0123", 18),                  # the affine scheme itself
    ],
)
def test_p3_fusion_aut_orders(rgs, expect):
    rec = fuse(3, SlopePartition.from_string(rgs))
    aut = automorphism_group(rec.scheme)
    assert aut.order == expect
    assert aut.order == brute_force_aut_order(rec.scheme.matrix)


def test_small_schemes_match_brute_force():
    for X in (trivial_scheme(5),
              wreath_product(trivial_scheme(2), trivial_scheme(3)),
              tensor_product(trivial_scheme(2), trivial_scheme(4)),
              trivial_scheme(8)):
        aut = automorphism_group(X)
        assert aut.order == brute_force_aut_order(X.matrix)


def test_generator_soundness_and_determinism():
    rec = fuse(5, SlopePartition.from_string("010212"))
    a1 = automorphism_group(rec.scheme)
    a2 = automorphism_group(rec.scheme)
    assert a1.generators == a2.generators
    m = rec.scheme.matrix
    for g in a1.generators:
        arr = np.array(g)
        assert np.array_equal(m[np.ix_(arr, arr)], m)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        automorphism_group(trivial_scheme(9), node_cap=5)


def test_orbitals_examples():
    labels, count = orbitals([], 3)
    assert count == 9

    sym3 = [(1, 0, 2), (1, 2, 0)]
    labels, count = orbitals(sym3, 3)
    assert count == 2
    diag = {labels[i, i] for i in range(3)}
    assert len(diag) == 1

    X3 = build_affine_scheme(3)
    aut = automorphism_group(X3)
    labels, count = orbitals(aut.generators, 9)
    assert count == X3.rank
    # the orbitals are exactly the basis relations
    for cell in range(count):
        colors = np.unique(X3.matrix[labels == cell])
        assert len(colors) == 1


def test_orbital_count_rejects_a_non_automorphism():
    X3 = build_affine_scheme(3)
    assert orbital_count(X3, automorphism_group(X3).generators) == X3.rank
    # swapping (0,1) and (1,0) alone moves a vertical pair onto a slope-0 pair
    swap = (0, 3, 2, 1, 4, 5, 6, 7, 8)
    with pytest.raises(InvariantViolated):
        orbital_count(X3, [swap])


def test_is_schurian_examples():
    assert is_schurian(trivial_scheme(6))
    assert is_schurian(build_affine_scheme(3))
    for rgs in ("0000", "0111", "0112"):
        assert is_schurian(fuse(3, SlopePartition.from_string(rgs)).scheme)


def test_p3_all_fusions_schurian():
    for P in partitions_iter(4):
        assert is_schurian(fuse(3, P).scheme), P
