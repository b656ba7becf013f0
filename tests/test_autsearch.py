import math

import numpy as np
import pytest

from oracles import bfs_orbitals, brute_force_aut_order, unique_refine

from planeschemes.affine import (
    SlopePartition,
    affine_automorphisms,
    build_affine_scheme,
    fuse,
    partitions_iter,
)
from planeschemes.autsearch import (
    MAX_AUT_POINTS,
    _refine,
    automorphism_group,
    is_schurian,
    orbital_count,
    orbitals,
    refine,
)
from planeschemes.errors import BudgetExceeded, InvariantViolated
from planeschemes.permgroup import StabilizerChain
from planeschemes.scheme import tensor_product, trivial_scheme, wreath_product
from planeschemes.subgroups import least_in_orbit


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


def test_refine_renumbers_labels_that_skip_values():
    wreath = fuse(3, SlopePartition.from_string("0111")).scheme
    init = np.zeros(9, dtype=int)
    init[0] = 2
    col = refine(wreath, init)
    assert sorted(np.bincount(col).tolist()) == [1, 2, 6]

    col = refine(trivial_scheme(6), [0, 0, 0, 0, 0, 7])
    assert col.tolist() == [0, 0, 0, 0, 0, 1]

    with pytest.raises(ValueError):
        refine(trivial_scheme(6), [0, 0, 0, 0, 0, -1])


@pytest.mark.parametrize("p,rgs", [(5, "001122"), (5, "011111"), (5, "012345"),
                                   (7, "00112233"), (7, "01111111"), (7, "00111010")])
def test_refine_matches_unique_reference(p, rgs):
    stack = fuse(p, SlopePartition.from_string(rgs)).scheme.color_stack
    rng = np.random.default_rng(p * 1000 + len(rgs))
    for _ in range(20):
        labels = rng.integers(0, rng.integers(1, 5), size=p * p)
        labels[rng.choice(p * p, size=3, replace=False)] = [5, 6, 7]
        _, col = np.unique(labels, return_inverse=True)
        got_col, got_trace = _refine(stack, col)
        want_col, want_trace = unique_refine(stack, col)
        assert np.array_equal(got_col, want_col)
        assert got_trace == want_trace


def test_refine_matches_unique_reference_at_the_size_cap():
    # n = MAX_AUT_POINTS: cell numbers pass 255 and counts pass 255, so both
    # bytes of each 16-bit key word are exercised
    X = tensor_product(trivial_scheme(20), trivial_scheme(20))
    assert X.n == MAX_AUT_POINTS
    rng = np.random.default_rng(400)
    for k in (1, 2, 3, 1000):
        labels = rng.integers(0, k, size=X.n)
        labels[rng.choice(X.n, size=2, replace=False)] = [k, k + 1]
        _, col = np.unique(labels, return_inverse=True)
        got_col, got_trace = _refine(X.color_stack, col)
        want_col, want_trace = unique_refine(X.color_stack, col)
        assert np.array_equal(got_col, want_col)
        assert got_trace == want_trace


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


def test_order_from_base_orbits_matches_schreier_sims():
    cases = [(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    cases += [(7, SlopePartition.from_string(rgs))
              for rgs in ("00000000", "01234567", "01111111", "00111010", "00112233")]
    assert len(cases) == 223
    for p, P in cases:
        X = fuse(p, P).scheme
        aut = automorphism_group(X)
        assert aut.order == StabilizerChain(aut.generators, X.n).order(), (p, P)


def test_affine_maps_keep_every_fusion_color():
    for p in (3, 5):
        maps = [np.array(g) for g in affine_automorphisms(p)]
        assert len(maps) == 3
        for P in partitions_iter(p + 1):
            m = fuse(p, P).scheme.matrix
            for g in maps:
                assert np.array_equal(m[np.ix_(g, g)], m), (p, P)


def test_known_automorphisms_keep_the_order():
    cases = [(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    cases += [(7, Q) for Q in sorted({least_in_orbit(7, P)[1] for P in partitions_iter(8)})]
    assert len(cases) == 218 + 47
    for p, P in cases:
        X = fuse(p, P).scheme
        seeded = automorphism_group(X, known=affine_automorphisms(p))
        assert seeded.order == automorphism_group(X).order, (p, P)


def test_known_maps_are_checked():
    X = build_affine_scheme(3)
    swap = (1, 0, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(ValueError):
        automorphism_group(X, known=[swap])
    with pytest.raises(ValueError):
        automorphism_group(X, known=[(0, 1, 2)])
    # the identity moves no base point and adds nothing
    assert automorphism_group(X, known=[tuple(range(9))]) == automorphism_group(X)


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


def test_orbitals_match_bfs_reference():
    rng = np.random.default_rng(7)
    gen_sets = [[], [tuple(rng.permutation(6))], [tuple(rng.permutation(6)) for _ in range(2)]]
    for p in (3, 5):
        for P in partitions_iter(p + 1):
            gen_sets.append(automorphism_group(fuse(p, P).scheme).generators)
    for gens in gen_sets:
        n = len(gens[0]) if gens else 6
        got_labels, got_count = orbitals(gens, n)
        want_labels, want_count = bfs_orbitals(gens, n)
        assert got_count == want_count
        assert np.array_equal(got_labels, want_labels)


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
