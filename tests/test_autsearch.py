import math
import warnings

import numpy as np
import pytest

from oracles import bfs_orbitals, brute_force_aut_order, orbit_representatives, unique_refine

from planeschemes import autsearch
from planeschemes.affine import (
    SlopePartition,
    affine_automorphisms,
    build_affine_scheme,
    fuse,
    partitions_iter,
)
from planeschemes.autsearch import (
    MAX_AUT_POINTS,
    _pairs,
    _refine,
    automorphism_group,
    is_schurian,
    orbital_count,
    orbitals,
    refine,
)
from planeschemes.errors import BudgetExceeded, InvariantViolated
from planeschemes.permgroup import StabilizerChain, is_permutation, orbit_of
from planeschemes.report import AutCache, run_sweep
from planeschemes.scheme import tensor_product, trivial_scheme, verify_scheme, wreath_product


def test_refine_examples():
    X = build_affine_scheme(5)
    col = refine(X, np.zeros(25, dtype=int))
    assert col.max() == 0                       # homogeneous: stays uniform

    T = trivial_scheme(6)
    init = np.zeros(6, dtype=int)
    init[2] = 1
    col = refine(T, init)
    assert sorted(np.bincount(col).tolist()) == [1, 5]

    wreath = fuse(3, SlopePartition.from_string("0111"))
    init = np.zeros(9, dtype=int)
    init[0] = 1
    col = refine(wreath, init)
    assert sorted(np.bincount(col).tolist()) == [1, 2, 6]


def test_refine_renumbers_labels_that_skip_values():
    wreath = fuse(3, SlopePartition.from_string("0111"))
    init = np.zeros(9, dtype=int)
    init[0] = 2
    col = refine(wreath, init)
    assert sorted(np.bincount(col).tolist()) == [1, 2, 6]

    col = refine(trivial_scheme(6), [0, 0, 0, 0, 0, 7])
    assert col.tolist() == [0, 0, 0, 0, 0, 1]

    with pytest.raises(ValueError):
        refine(trivial_scheme(6), [0, 0, 0, 0, 0, -1])


def test_refine_rejects_labels_the_int64_cast_changes():
    # truncating 0.5 to 0 would merge its cell into cell 0
    with pytest.raises(ValueError):
        refine(trivial_scheme(4), [0, 0.5, 1.7, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a ValueError, not numpy's cast warning
        for bad in (np.nan, 2.0**63):
            with pytest.raises(ValueError):
                refine(trivial_scheme(4), [0, bad, 0, 0])
    assert refine(trivial_scheme(4), [0.0, 2.0, 2.0, 0.0]).tolist() == [0, 1, 1, 0]
    assert refine(trivial_scheme(4), np.array([0, 3, 0, 0], dtype=np.uint8)).tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("p,rgs", [(5, "001122"), (5, "011111"), (5, "012345"),
                                   (7, "00112233"), (7, "01111111"), (7, "00111010")])
def test_refine_matches_unique_reference(p, rgs):
    X = fuse(p, SlopePartition.from_string(rgs))
    rng = np.random.default_rng(p * 1000 + len(rgs))
    for _ in range(20):
        labels = rng.integers(0, rng.integers(1, 5), size=p * p)
        labels[rng.choice(p * p, size=3, replace=False)] = [5, 6, 7]
        _, col = np.unique(labels, return_inverse=True)
        got_col, got_trace = _refine(_pairs(X), X.rank, col)
        want_col, want_trace = unique_refine(X.matrix, col)
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
        got_col, got_trace = _refine(_pairs(X), X.rank, col)
        want_col, want_trace = unique_refine(X.matrix, col)
        assert np.array_equal(got_col, want_col)
        assert got_trace == want_trace


def test_refine_never_merges_and_idempotent():
    X = fuse(5, SlopePartition.from_string("001122"))
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
    X = fuse(3, SlopePartition.from_string(rgs))
    aut = automorphism_group(X)
    assert aut.order == expect
    assert aut.order == brute_force_aut_order(X.matrix)


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
        X = fuse(p, P)
        aut = automorphism_group(X)
        assert aut.order == StabilizerChain(aut.generators, X.n).order(), (p, P)


def test_node_acceptance_keeps_the_search_small():
    # a candidate is tested at every node whose trace matches the base path,
    # not only at discrete leaves: the seeded p=7 representatives took 2378
    # nodes and the one-block fusion 1129 when every candidate came from a leaf
    seeds = affine_automorphisms(7)
    total = 0
    for P in orbit_representatives(7):
        X = fuse(7, P)
        aut = automorphism_group(X, known=seeds)
        assert aut.order == StabilizerChain(aut.generators, X.n).order(), P
        total += aut.nodes
    assert total <= 600
    one_block = fuse(7, SlopePartition.from_string("00000000"))
    for known in ((), seeds):
        assert automorphism_group(one_block, known=known).nodes <= 2 * 49


def _recorded_searches(monkeypatch) -> list:
    """Every `_AutSearch` that `automorphism_group` runs from now on, in order."""
    searches = []

    class Recording(autsearch._AutSearch):
        def run(self, col0, digest0):
            searches.append(self)
            super().run(col0, digest0)

    monkeypatch.setattr(autsearch, "_AutSearch", Recording)
    return searches


def test_generators_deviate_at_the_depth_they_enter(monkeypatch):
    # the order rule needs each generator entered at depth d to fix
    # b_0..b_{d-1} and move b_d, whether the search or the caller found it
    searches = _recorded_searches(monkeypatch)
    cases = [(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    cases += [(7, P) for P in orbit_representatives(7)]
    for p, P in cases:
        X = fuse(p, P)
        for known in ((), affine_automorphisms(p)):
            automorphism_group(X, known=known)
            search = searches.pop()
            assert len(search.orbit_lengths) == len(search.base)
            for d, g in search.generators:
                assert all(g[b] == b for b in search.base[:d]), (p, P, d)
                assert g[search.base[d]] != search.base[d], (p, P, d)


def test_a_subtree_yields_only_maps_that_send_b_dev_to_its_sibling(monkeypatch):
    # a node whose trace matched by a hash collision could offer an
    # automorphism that deviates elsewhere; the explicit check refuses it.
    # In the trivial scheme every map is an automorphism, and every map
    # offered below the node that individualised v sends b_0 to v.
    searches = _recorded_searches(monkeypatch)
    X = trivial_scheme(5)
    automorphism_group(X)
    search = searches.pop()
    b0 = search.base[0]
    for v in range(5):
        col = np.zeros(5, dtype=np.int64)
        col[v] = 1
        col, digest = _refine(search.pairs, X.rank, col)
        assert digest == search.base_digests[1]
        for x in range(5):
            found = search._subtree(col, 1, 0, x)
            assert (found is not None) == (x == v), (v, x)
            assert found is None or found[b0] == x


def test_affine_maps_keep_every_fusion_color():
    for p in (3, 5):
        maps = [np.array(g) for g in affine_automorphisms(p)]
        assert len(maps) == 3
        for P in partitions_iter(p + 1):
            m = fuse(p, P).matrix
            for g in maps:
                assert np.array_equal(m[np.ix_(g, g)], m), (p, P)


def test_search_matches_the_unique_refine_reference(monkeypatch):
    # the search over oracles.unique_refine visits the same nodes and finds
    # the same generators, so the signatures, numbering and traces agree
    cases = [(p, P) for p in (3, 5, 7) for P in orbit_representatives(p)]
    assert len(cases) == 5 + 13 + 47
    for p, P in cases:
        X = fuse(p, P)
        for known in ((), affine_automorphisms(p)):
            got = automorphism_group(X, known=known)
            with monkeypatch.context() as m:
                m.setattr(autsearch, "_refine",
                          lambda pairs, r, col: unique_refine(pairs % r, col))
                want = automorphism_group(X, known=known)
            assert (got.generators, got.order, got.nodes) == \
                (want.generators, want.order, want.nodes), (p, P, len(known))
        labels, count = orbitals(got.generators, X.n)
        want_labels, want_count = bfs_orbitals(got.generators, X.n)
        assert count == want_count and np.array_equal(labels, want_labels), (p, P)


def test_known_automorphisms_keep_the_order():
    cases = [(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    cases += [(7, P) for P in orbit_representatives(7)]
    assert len(cases) == 218 + 47
    for p, P in cases:
        X = fuse(p, P)
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


def test_known_maps_with_non_integer_entries_are_rejected():
    # truncating 0.5, 1.5, ... to 0, 1, ... would seed the search with the identity
    X = build_affine_scheme(3)
    with pytest.raises(ValueError):
        automorphism_group(X, known=[np.arange(9.0) + 0.5])
    with pytest.raises(ValueError):
        automorphism_group(X, known=[np.arange(9.0)])
    assert automorphism_group(X, known=[np.arange(9, dtype=np.uint8)]).order == 18


def test_is_automorphism_is_false_for_maps_that_are_no_integer_permutation():
    M = build_affine_scheme(3).matrix
    assert autsearch.is_automorphism(M, list(range(9)))
    assert autsearch.is_automorphism(M, np.arange(9, dtype=np.int16))
    for bad in ([float(v) for v in range(9)],          # float, even when integral
                np.arange(9.0) + 0.5,
                list(range(1, 10)),                    # out of range, above
                [-1] + list(range(1, 9)),              # out of range, below
                [0, 0] + list(range(2, 9)),            # a repeated point
                list(range(8)), list(range(10)),       # wrong length
                np.arange(9).reshape(3, 3),            # 2-D
                np.arange(9)[None, :],
                [True] * 9):
        assert autsearch.is_automorphism(M, bad) is False, bad


def test_a_ragged_map_is_no_permutation_and_no_automorphism():
    # np.asarray raises ValueError on a ragged sequence: both predicates say False
    for ragged in ([[0, 1], [2]], [0, [1, 2], 3, 4, 5, 6, 7, 8, 9]):
        assert is_permutation(ragged, 9) is False, ragged
        assert autsearch.is_automorphism(build_affine_scheme(3).matrix, ragged) is False, ragged


def test_generator_soundness_and_determinism():
    X = fuse(5, SlopePartition.from_string("010212"))
    a1 = automorphism_group(X)
    a2 = automorphism_group(X)
    assert a1.generators == a2.generators
    m = X.matrix
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
            gen_sets.append(automorphism_group(fuse(p, P)).generators)
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


def test_the_search_count_is_the_orbital_count_of_its_generators(tmp_path):
    # unseeded, seeded with the affine maps, and seeded as a sweep seeds it
    # from a stored cache entry: the count read off the suborbits of b_0 is
    # the number of 2-orbits of the generators, by both oracles
    cases = [(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    cases += [(7, P) for P in orbit_representatives(7)]
    assert len(cases) == 218 + 47
    cache = AutCache(str(tmp_path))
    for p, P in cases:
        X = fuse(p, P)
        unseeded = automorphism_group(X)
        cache.store(X, unseeded)
        stored = cache.load(X)
        assert stored == unseeded.generators, (p, P)
        affine = affine_automorphisms(p)
        for known in ((), affine, tuple(dict.fromkeys(affine + stored))):
            aut = automorphism_group(X, known=known)
            assert len(orbit_of(aut.generators, 0)) == X.n, (p, P)   # transitive
            want = orbitals(aut.generators, X.n)[1]
            assert aut.orbital_count == want == bfs_orbitals(aut.generators, X.n)[1], \
                (p, P, len(known))


def test_a_sweep_counts_no_orbitals(monkeypatch):
    # every slope fusion's group is transitive, so no search falls back to
    # the pairs
    def no_orbitals(*args):
        raise AssertionError("orbitals was called")

    monkeypatch.setattr(autsearch, "orbitals", no_orbitals)
    records = run_sweep(5, partitions_iter(6))
    assert sum(rec.schurian is False for rec in records) == 125


#: a Latin square of order 5 that is no group table; its Latin square graph
#: is a rank-3 scheme whose automorphism group (order 72) is intransitive
_LATIN_5 = ((4, 0, 1, 2, 3), (2, 3, 4, 1, 0), (3, 1, 2, 0, 4), (0, 2, 3, 4, 1), (1, 4, 0, 3, 2))


def _latin_square_graph(square) -> np.ndarray:
    """Color 1 joins two cells that share a row, a column or a symbol; color 2 the rest."""
    m = len(square)
    row, col = np.divmod(np.arange(m * m), m)
    sym = np.asarray(square).ravel()
    joined = (row[:, None] == row) | (col[:, None] == col) | (sym[:, None] == sym)
    matrix = np.where(joined, 1, 2)
    np.fill_diagonal(matrix, 0)
    return matrix


def test_an_intransitive_group_is_counted_on_the_pairs(monkeypatch):
    X = verify_scheme(_latin_square_graph(_LATIN_5))
    calls = []
    counted = autsearch.orbitals

    def spy(generators, n):
        calls.append(n)
        return counted(generators, n)

    monkeypatch.setattr(autsearch, "orbitals", spy)
    aut = automorphism_group(X)
    assert aut.order == 72 and len(orbit_of(aut.generators, 0)) < X.n
    assert calls == [X.n]
    want = counted(aut.generators, X.n)[1]
    assert aut.orbital_count == want == bfs_orbitals(aut.generators, X.n)[1] == 19
    assert not is_schurian(X)


def test_a_suborbit_across_two_colors_raises():
    X3 = build_affine_scheme(3)
    stabiliser = [g for g in automorphism_group(X3).generators if g[0] == 0]
    assert autsearch._suborbit_count(X3, 0, stabiliser) == X3.rank
    # swapping 1 = (0, 1) and 3 = (1, 0) alone joins two slopes through 0
    with pytest.raises(InvariantViolated):
        autsearch._suborbit_count(X3, 0, [(0, 3, 2, 1, 4, 5, 6, 7, 8)])


def test_is_schurian_examples():
    assert is_schurian(trivial_scheme(6))
    assert is_schurian(build_affine_scheme(3))
    for rgs in ("0000", "0111", "0112"):
        assert is_schurian(fuse(3, SlopePartition.from_string(rgs)))


def test_p3_all_fusions_schurian():
    for P in partitions_iter(4):
        assert is_schurian(fuse(3, P)), P
