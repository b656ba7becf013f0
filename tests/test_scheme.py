import random
import warnings
from itertools import combinations, product, takewhile

import numpy as np
import pytest

from oracles import (
    cyclic_scheme,
    direct_intersection_count,
    minimum_at_is_subtensor,
    minimum_at_quotient,
    orbit_representatives,
    subset_parabolics,
    union_find_quotient_matrix,
    unique_verify_scheme,
)

from planeschemes.affine import (
    SlopePartition,
    _fusion_tensor,
    build_affine_scheme,
    fuse,
    fusion_matrix,
    partitions_iter,
)
from planeschemes.classify import (
    WREATH,
    _basic_candidates,
    _trivial_wreath,
    involutive_presentations,
)
from planeschemes.errors import (
    InconsistentIntersection,
    InvariantViolated,
    NotAlgebraic,
    NotStarClosed,
)
from planeschemes.permgroup import PermGroup, group_closure
from planeschemes.subgroups import pgl_table
from planeschemes.scheme import (
    ParabolicSet,
    _verified_quotient,
    algebraic_fusion,
    all_color_permutations_fixing_zero,
    is_algebraic_map,
    is_primitive,
    is_pseudocyclic,
    is_subtensor,
    merge,
    parabolic_classes,
    parabolic_from_colors,
    parabolics,
    quotient,
    relation_stats,
    restriction,
    scheme_digest,
    scheme_from_bytes,
    scheme_to_bytes,
    tensor_product,
    trivial_scheme,
    verify_scheme,
    wreath_product,
)


def test_verify_trivial():
    X = trivial_scheme(3)
    assert X.rank == 2
    assert X.tensor[1, 1, 1] == 1
    assert X.tensor[1, 1, 0] == 2


def test_verify_affine_p3():
    X = build_affine_scheme(3)
    assert X.rank == 5 and X.n == 9


def test_not_star_closed():
    # transpose of color 1 meets colors 2 and 3
    m = np.array([
        [0, 1, 4],
        [2, 0, 1],
        [4, 3, 0],
    ])
    with pytest.raises(NotStarClosed):
        verify_scheme(m)


def test_single_directed_edge_is_not_a_scheme():
    # color 1 a single directed edge: its transpose must be its own color,
    # and the pairing with color 2 already breaks the intersection numbers
    m = np.array([[0, 1, 3], [2, 0, 3], [3, 3, 0]])
    with pytest.raises((NotStarClosed, InconsistentIntersection)):
        verify_scheme(m)


def test_entries_the_int16_cast_changes_are_rejected():
    # 65537 wraps to color 1 and 1.7, 1.2 truncate to 1: each would pass as
    # the rank-2 scheme on 2 points
    for m in (np.array([[0, 65537], [65537, 0]]), np.array([[0, 1.7], [1.2, 0]])):
        with pytest.raises(ValueError, match="int16"):
            verify_scheme(m)
    assert verify_scheme(np.array([[0, 1.0], [1.0, 0]])).rank == 2


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e10])
def test_entries_no_int16_holds_raise_the_typed_error_alone(entry):
    # numpy warns while it casts these; the warning must not escape first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="int16"):
            verify_scheme(np.array([[0, entry], [entry, 0]]))


def _corrupted(m, rng):
    """One symmetric swap of two pairs of different colors, and one asymmetric color."""
    n = m.shape[0]
    while True:
        (a, b), (c, d) = (rng.sample(range(n), 2) for _ in range(2))
        if m[a, b] != m[c, d]:
            break
    swapped = m.copy()
    swapped[a, b], swapped[c, d] = m[c, d], m[a, b]
    swapped[b, a], swapped[d, c] = m[d, c], m[b, a]
    skewed = m.copy()
    skewed[a, b] = m[c, d]
    return (swapped, InconsistentIntersection), (skewed, NotStarClosed)


def _outcome(check, *args):
    try:
        return check(*args)
    except (InvariantViolated, ValueError, NotStarClosed, InconsistentIntersection) as exc:
        return exc


def test_verify_scheme_matches_the_unique_oracle():
    rng = random.Random(15)
    fused = [fuse(p, P) for p in (3, 5) for P in partitions_iter(p + 1)]
    inputs = [(X.matrix, None) for X in fused]
    inputs += [(quotient(X, e).matrix, None) for X in fused for e in parabolics(X)]
    inputs += [case for X in fused if X.rank > 2 for case in _corrupted(X.matrix, rng)]
    assert len(inputs) == 218 + 768 + 2 * 216
    # and one of each malformed color matrix
    inputs += [(m, ValueError) for m in (
        np.zeros((2, 3), dtype=np.int16), np.zeros((0, 0), dtype=np.int16),
        np.array([[0, 2], [2, 0]]), np.array([[0, -1], [-1, 0]]),
        np.array([[1, 1], [1, 0]]), np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))]
    for m, raises in inputs:
        want = _outcome(unique_verify_scheme, m)
        got = _outcome(verify_scheme, m)
        if raises is None:
            star, tensor = want
            assert got.star == star
            assert np.array_equal(got.tensor, tensor)
            assert got.tensor.dtype == np.int64 and not got.tensor.flags.writeable
        else:
            assert type(got) is type(want) is raises
            assert got.args == want.args
            assert getattr(got, "pairs", None) == getattr(want, "pairs", None)


def test_inconsistent_intersection():
    # path on 3 points: symmetric colors but no constant intersection numbers
    m = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    with pytest.raises(InconsistentIntersection) as err:
        verify_scheme(m)
    r, s, t = err.value.triple
    p1, p2 = err.value.pairs
    assert m[p1] == t and m[p2] == t
    assert (direct_intersection_count(m, r, s, *p1)
            != direct_intersection_count(m, r, s, *p2))


def _assert_same_scheme(got, want):
    """Equal bytes, dtypes and read-only flags, as the digests and cache keys need."""
    assert got.star == want.star and all(type(s) is int for s in got.star)
    for a, b in ((got.matrix, want.matrix), (got.tensor, want.tensor)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.flags.c_contiguous and not a.flags.writeable
    assert scheme_digest(got) == scheme_digest(want)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fuse_merges_what_verify_scheme_counts(p):
    # every fusion: 15, 203 and all 4140 at p = 7
    fusions = list(partitions_iter(p + 1))
    assert len(fusions) == {3: 15, 5: 203, 7: 4140}[p]
    for P in fusions:
        _assert_same_scheme(fuse(p, P), verify_scheme(fusion_matrix(p, P)))


@pytest.mark.parametrize("p", [3, 5])
def test_algebraic_fusion_merges_what_verify_scheme_counts(p):
    # each involution that presents a fusion as an involutive one, on its inner fusion
    count = 0
    for P in partitions_iter(p + 1):
        for P2, phi in involutive_presentations(P):
            X2 = fuse(p, P2)
            fused = algebraic_fusion(X2, group_closure([phi], X2.rank))
            _assert_same_scheme(fused, verify_scheme(fusion_matrix(p, P)))
            count += 1
    assert count > 0


def test_merge_rejects_an_inconsistent_block_sum():
    # thin Z_7 merged as {+-1}, {+-2, +-3}: A_1^2 = 2I + A_2 meets +-2 but not +-3
    Z = verify_scheme(cyclic_scheme(7))
    cmap = np.array([0, 1, 2, 2, 2, 2, 1])
    m = cmap[Z.matrix]
    with pytest.raises(InconsistentIntersection) as err:
        merge(Z, cmap)
    r, s, t = err.value.triple
    p1, p2 = err.value.pairs
    assert m[p1] == m[p2] == t and Z.matrix[p1] != Z.matrix[p2]
    assert (direct_intersection_count(m, r, s, *p1)
            != direct_intersection_count(m, r, s, *p2))
    with pytest.raises(InconsistentIntersection):
        verify_scheme(m)


def test_merge_rejects_a_map_that_is_not_star_closed():
    # thin Z_5 merged as {1, 2}, {3}, {4}: the transpose of {1, 2} is {4, 3}
    Z = verify_scheme(cyclic_scheme(5))
    cmap = np.array([0, 1, 1, 2, 3])
    with pytest.raises(NotStarClosed):
        merge(Z, cmap)
    with pytest.raises(NotStarClosed):
        verify_scheme(cmap[Z.matrix])


def test_merge_rejects_a_malformed_color_map():
    X = build_affine_scheme(3)
    assert merge(X, [0, 1, 1, 2, 2]).rank == 3
    for cmap in ([0, 1, 1, 2], [0, 1, 1, 2, 2, 2], [0, 0, 1, 1, 1], [1, 0, 2, 2, 2],
                 [0, 1, 1, 3, 3], [0, 1, -1, 2, 2]):
        with pytest.raises(ValueError):
            merge(X, cmap)


def test_tensor_matches_direct_recount():
    rng = random.Random(29)
    for X in (build_affine_scheme(3), build_affine_scheme(5),
              fuse(5, SlopePartition.from_string("010212"))):
        m = X.matrix
        pairs_by_color = {
            t: np.argwhere(m == t) for t in range(X.rank)
        }
        for _ in range(100):
            r = rng.randrange(X.rank)
            s = rng.randrange(X.rank)
            t = rng.randrange(X.rank)
            locs = pairs_by_color[t]
            for _ in range(5):
                a, b = locs[rng.randrange(len(locs))]
                assert X.tensor[r, s, t] == direct_intersection_count(m, r, s, a, b)


def test_row_sum_law():
    for X in (build_affine_scheme(3), build_affine_scheme(5),
              wreath_product(trivial_scheme(3), trivial_scheme(4))):
        stats = relation_stats(X)
        for r in range(X.rank):
            for t in range(X.rank):
                assert X.tensor[r, :, t].sum() == stats.valencies[r]
        assert sum(stats.valencies[1:]) == X.n - 1


def test_relation_stats_examples():
    n = 6
    stats = relation_stats(trivial_scheme(n))
    assert stats.valencies[1] == n - 1
    assert stats.indistinguishing[1] == n - 2
    X5 = build_affine_scheme(5)
    s5 = relation_stats(X5)
    assert set(s5.valencies[1:]) == {4}
    assert set(s5.indistinguishing[1:]) == {3}


def test_is_pseudocyclic():
    assert is_pseudocyclic(trivial_scheme(7))
    for p in (3, 5, 7):
        assert is_pseudocyclic(build_affine_scheme(p))
    grid = fuse(3, SlopePartition.from_string("0112"))
    assert not is_pseudocyclic(grid)


def test_parabolics_counts():
    assert len(parabolics(trivial_scheme(4))) == 2
    assert is_primitive(trivial_scheme(4))
    X3 = build_affine_scheme(3)
    pars = parabolics(X3)
    assert len(pars) == 6          # two trivial ones plus one per slope
    assert not is_primitive(X3)
    grid = fuse(3, SlopePartition.from_string("0112"))
    assert len(parabolics(grid)) == 4
    one_merged = fuse(3, SlopePartition.from_string("0000"))
    assert is_primitive(one_merged)


def _products():
    t3, x3 = trivial_scheme(3), build_affine_scheme(3)
    return [tensor_product(t3, t3), wreath_product(t3, t3), wreath_product(x3, t3),
            tensor_product(x3, trivial_scheme(2))]


_ORACLE_CASES = {
    "p3-fusions": lambda: [fuse(3, P) for P in partitions_iter(4)],
    "p5-fusions": lambda: [fuse(5, P) for P in partitions_iter(6)],
    "XA7-XA11": lambda: [build_affine_scheme(7), build_affine_scheme(11)],
    "products": _products,
    "thin-Z6-Z8-Z9-Z12": lambda: [verify_scheme(cyclic_scheme(n)) for n in (6, 8, 9, 12)],
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_parabolics_and_quotients_match_the_oracles(case):
    # closure over composition masks against every union of star-orbits, and
    # the least-color quotient against the union-find one
    for X in _ORACLE_CASES[case]():
        pars = parabolics(X)
        assert [(e.colors, e.num_classes, e.class_size) for e in pars] == subset_parabolics(X)
        for e in pars:
            q = union_find_quotient_matrix(X, e.colors)
            assert np.array_equal(quotient(X, e).matrix, q), (X, sorted(e.colors))


def _slope_parabolics(p, P):
    """The parabolics of the P-fusion as `_basic_candidates` reads them off P."""
    wreaths = takewhile(lambda cand: cand[0] == WREATH, _basic_candidates(p, P))
    inner = [frozenset(w["parabolic_colors"]) for _, w in wreaths]
    return [frozenset({0})] + inner + [frozenset(range(P.num_blocks + 1))]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_parabolics_read_off_the_partition_match_the_oracles(p):
    # {0}, {0, b + 1} per block b of one slope, and every color: against
    # every union of star-orbits at p = 3, 5 and the closure search at p = 7
    for P in partitions_iter(p + 1):
        X = fuse(p, P)
        if p == 7:
            want = [e.colors for e in parabolics(X)]
        else:
            want = [colors for colors, _, _ in subset_parabolics(X)]
        assert _slope_parabolics(p, P) == want, P


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_is_primitive_matches_the_parabolic_count(case):
    # on each scheme, each of its quotients, and the rank-1 scheme on one point
    schemes = [trivial_scheme(1)]
    for X in _ORACLE_CASES[case]():
        schemes += [X] + [quotient(X, e) for e in parabolics(X)]
    for X in schemes:
        assert is_primitive(X) == (len(parabolics(X)) == 2), X
    assert not is_primitive(trivial_scheme(1))


def _star_closed_subsets(X):
    """Every union of star-orbits of colors, 0's included."""
    orbits = sorted({frozenset((s, X.star[s])) for s in range(X.rank)}, key=min)
    for k in range(len(orbits) + 1):
        for chosen in combinations(orbits, k):
            yield frozenset().union(*chosen)


_LOOKUP_CASES = {
    "XA3": lambda: [build_affine_scheme(3)],
    "products": _products,
    "thin-Z6-Z12": lambda: [verify_scheme(cyclic_scheme(n)) for n in (6, 12)],
}


@pytest.mark.parametrize("case", sorted(_LOOKUP_CASES))
def test_parabolic_from_colors_is_membership_in_parabolics(case):
    # the closure test of one color set against the enumeration of them all
    for X in _LOOKUP_CASES[case]():
        pars = {e.colors: e for e in parabolics(X)}
        for colors in _star_closed_subsets(X):
            assert parabolic_from_colors(X, colors) == pars.get(colors), (X, sorted(colors))


@pytest.mark.parametrize("n, divisors", [(65, (1, 5, 13, 65)),
                                         (70, (1, 2, 5, 7, 10, 14, 35, 70))])
def test_thin_cyclic_parabolics_are_the_divisor_subgroups(n, divisors):
    # rank n > 64: the closures are boolean arrays, and no rank bound applies
    X = verify_scheme(cyclic_scheme(n))
    got = {e.colors: (e.num_classes, e.class_size) for e in parabolics(X)}
    assert got == {frozenset(range(0, n, n // d)): (n // d, d) for d in divisors}


def test_quotient_rejects_a_color_set_that_is_not_parabolic():
    # two slopes of AG(2,3), and one generator of Z_6: neither union is an
    # equivalence relation, though each gives as many classes as claimed
    for X, colors, k in ((build_affine_scheme(3), {0, 1, 2}, 3),
                         (verify_scheme(cyclic_scheme(6)), {0, 1}, 5)):
        e = ParabolicSet(frozenset(colors), k, X.n // k)
        assert e not in parabolics(X)
        with pytest.raises(InvariantViolated):
            quotient(X, e)


def test_quotient_restriction_trivial():
    X3 = build_affine_scheme(3)
    for e in parabolics(X3):
        if e.is_trivial(X3.rank):
            continue
        q = quotient(X3, e)
        assert q.rank == 2 and q.n == 3
        cls = parabolic_classes(X3, e)
        sub = restriction(X3, np.nonzero(cls == 0)[0])
        assert sub.rank == 2 and sub.n == 3


def test_quotient_by_diagonal_is_identity():
    X = build_affine_scheme(3)
    e = [e for e in parabolics(X) if len(e.colors) == 1][0]
    q = quotient(X, e)
    assert q.rank == X.rank and q.n == X.n
    assert np.array_equal(q.matrix, X.matrix)


def test_quotients_of_fusions_always_trivial():
    # every fusion of the affine scheme has only degree-p quotient/restriction
    from planeschemes.affine import partitions_iter

    for p in (3, 5):
        for P in partitions_iter(p + 1):
            X = fuse(p, P)
            for e in parabolics(X):
                if e.is_trivial(X.rank):
                    continue
                assert quotient(X, e).rank == 2
                cls = parabolic_classes(X, e)
                assert restriction(X, np.nonzero(cls == 0)[0]).rank == 2


def test_wreath_product_shape():
    w = wreath_product(trivial_scheme(3), trivial_scheme(3))
    assert w.rank == 3
    assert sorted(w.valencies[1:]) == [2, 6]
    x = build_affine_scheme(3)
    degenerate = wreath_product(x, trivial_scheme(1))
    assert degenerate.rank == x.rank
    assert np.array_equal(degenerate.matrix, x.matrix)


def test_tensor_product_shape():
    t = tensor_product(trivial_scheme(3), trivial_scheme(3))
    assert t.rank == 4
    assert sorted(t.valencies[1:]) == [2, 2, 4]


def test_grid_fusion_is_tensor_product():
    g = fuse(3, SlopePartition.from_string("0112"))
    t = tensor_product(trivial_scheme(3), trivial_scheme(3))
    relabel = np.array([0, 2, 3, 1], dtype=np.int16)
    assert np.array_equal(relabel[g.matrix], t.matrix)


def test_is_subtensor():
    X3 = build_affine_scheme(3)
    pars = [e for e in parabolics(X3) if not e.is_trivial(X3.rank)]
    vertical = [e for e in pars if 4 in e.colors][0]   # slope-infinity color
    horizontal = [e for e in pars if 1 in e.colors][0]  # slope-0 color
    quotients = is_subtensor(X3, vertical, horizontal)
    assert [(q.n, q.rank) for q in quotients] == [(3, 2), (3, 2)]
    assert is_subtensor(X3, vertical, vertical) is None   # the same classes twice: no grid
    t = tensor_product(trivial_scheme(3), trivial_scheme(3))
    tp = [e for e in parabolics(t) if not e.is_trivial(t.rank)]
    assert is_subtensor(t, tp[0], tp[1])
    w = wreath_product(trivial_scheme(3), trivial_scheme(3))
    wp = [e for e in parabolics(w) if not e.is_trivial(w.rank)]
    assert len(wp) == 1
    assert is_subtensor(w, wp[0], wp[0]) is None


def _same_scheme(a, b) -> bool:
    return (a.matrix.dtype == b.matrix.dtype and np.array_equal(a.matrix, b.matrix)
            and a.star == b.star and np.array_equal(a.tensor, b.tensor))


def _same_outcome(got, want) -> bool:
    """Equal schemes, equal pairs of schemes, both None, or equal exceptions."""
    if isinstance(want, tuple):
        return isinstance(got, tuple) and all(map(_same_scheme, got, want))
    if isinstance(want, Exception):
        return type(got) is type(want) and got.args == want.args
    return got is want if want is None else _same_scheme(got, want)


def _nontrivial_products():
    # factors of rank 5 and 4, so that the quotients have rank above 2
    x3, z4 = build_affine_scheme(3), verify_scheme(cyclic_scheme(4))
    return [tensor_product(x3, z4), wreath_product(z4, x3)]


_QUOTIENT_CASES = {
    "p3-fusions": lambda: [fuse(3, P) for P in partitions_iter(4)],
    "p5-fusions": lambda: [fuse(5, P) for P in partitions_iter(6)],
    "p7-orbit-representatives": lambda: [fuse(7, P) for P in orbit_representatives(7)],
    "products": _nontrivial_products,
}


@pytest.mark.parametrize("case", sorted(_QUOTIENT_CASES))
def test_quotient_and_is_subtensor_match_the_verify_every_call_oracle(case):
    # every non-trivial parabolic and every pair of them: the memoized quotient
    # is the one verified afresh, and so is each pair is_subtensor returns
    ranks = set()
    for X in _QUOTIENT_CASES[case]():
        pars = [e for e in parabolics(X) if not e.is_trivial(X.rank)]
        for e in pars:
            want = minimum_at_quotient(X, parabolic_classes(X, e), e.num_classes)
            assert _same_scheme(quotient(X, e), want), (X, sorted(e.colors))
        for e1, e2 in product(pars, repeat=2):
            got, want = is_subtensor(X, e1, e2), minimum_at_is_subtensor(X, e1, e2)
            assert _same_outcome(got, want), (X, sorted(e1.colors), sorted(e2.colors))
            ranks.update([(want[0].rank, want[1].rank)] if want else [])
    # XA3 x Z4 lies in XA3 (x) Z4 and in T3 (x) (T3 (x) Z4); the wreath product in no product
    want = {(4, 5), (5, 4), (2, 8), (8, 2)} if case == "products" else {(2, 2)}
    assert ranks == want


def test_invariant_violations_are_the_oracles():
    # any color set holding 0 with any class count: quotient and is_subtensor
    # raise InvariantViolated exactly where the oracle does, and agree elsewhere
    violations = 0
    for X in (verify_scheme(cyclic_scheme(6)), build_affine_scheme(3),
              tensor_product(trivial_scheme(2), trivial_scheme(3))):
        sets = [ParabolicSet(frozenset((0,) + rest), k, X.n // k)
                for size in range(X.rank) for rest in combinations(range(1, X.rank), size)
                for k in range(1, X.n + 1) if X.n % k == 0]
        for e in sets:
            want = _outcome(lambda: minimum_at_quotient(X, parabolic_classes(X, e), e.num_classes))
            assert _same_outcome(_outcome(quotient, X, e), want), (X, sorted(e.colors))
            violations += isinstance(want, InvariantViolated)
        for e1, e2 in product(sets, repeat=2):
            want = _outcome(minimum_at_is_subtensor, X, e1, e2)
            assert _same_outcome(_outcome(is_subtensor, X, e1, e2), want)
    assert violations > 0


def test_a_memoized_quotient_cannot_be_written():
    X = build_affine_scheme(5)
    e = next(e for e in parabolics(X) if not e.is_trivial(X.rank))
    q = quotient(X, e)
    for a in (q.matrix, q.tensor):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1
        with pytest.raises(ValueError):
            a.setflags(write=True)
    assert quotient(X, e) is q
    assert _same_scheme(q, trivial_scheme(5))


def test_verify_scheme_neither_aliases_nor_freezes_its_matrix():
    m = cyclic_scheme(5)
    X = verify_scheme(m)
    assert m.flags.writeable and not np.shares_memory(X.matrix, m)
    m[0, 1] = 2                       # no scheme any more; X keeps its own copy
    assert np.array_equal(X.matrix, cyclic_scheme(5))
    assert scheme_digest(X) == scheme_digest(verify_scheme(cyclic_scheme(5)))


def _assert_unwritable(a):
    with pytest.raises(ValueError):
        a.setflags(write=True)
    with pytest.raises(ValueError):
        a[(0,) * a.ndim] = 1


@pytest.mark.parametrize("p", [3, 5])
def test_no_holder_of_a_shared_array_can_write_into_it(p):
    # the memoized schemes, two fusions whose block sizes share one closed-form
    # tensor entry, a memoized quotient, that entry and the slope permutation table
    P, Q = SlopePartition.from_string("0" * p + "1"), SlopePartition.from_string("0" * (p - 1) + "10")
    assert P != Q and P.block_sizes() == Q.block_sizes()
    X = build_affine_scheme(p)
    e = next(e for e in parabolics(X) if not e.is_trivial(X.rank))
    for Y in (X, _trivial_wreath(p), fuse(p, P), fuse(p, Q), quotient(X, e)):
        _assert_unwritable(Y.matrix)
        _assert_unwritable(Y.tensor)
    _assert_unwritable(_fusion_tensor(p, P.block_sizes()))
    _assert_unwritable(pgl_table(p).array)
    assert np.array_equal(fuse(p, P).tensor, fuse(p, Q).tensor)


def test_a_label_matrix_that_is_no_scheme_raises_on_every_call():
    # the memo keeps results only: verify_scheme runs again on a rejected matrix
    bad = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=np.int16)
    size = _verified_quotient.cache_info().currsize
    for _ in range(3):
        with pytest.raises(InconsistentIntersection):
            _verified_quotient(3, bad.tobytes())
    assert _verified_quotient.cache_info().currsize == size


def _algebraic_maps(X):
    """Aaut(X) by exhaustion: every color permutation fixing 0 that is algebraic."""
    return [g for g in all_color_permutations_fixing_zero(X.rank) if is_algebraic_map(X, g)]


def test_algebraic_automorphisms_orders():
    assert len(_algebraic_maps(trivial_scheme(5))) == 1
    assert len(_algebraic_maps(build_affine_scheme(3))) == 24
    assert len(_algebraic_maps(build_affine_scheme(5))) == 720


def test_algebraic_fusion_examples():
    X3 = build_affine_scheme(3)
    ident = PermGroup(5, ((0, 1, 2, 3, 4),), ((0, 1, 2, 3, 4),))
    unchanged = algebraic_fusion(X3, ident)
    assert np.array_equal(unchanged.matrix, X3.matrix)

    swap = (0, 1, 3, 2, 4)    # swap the colors of slopes 1 and 2
    K = PermGroup(5, (swap,), ((0, 1, 2, 3, 4), swap))
    fused = algebraic_fusion(X3, K)
    assert fused.rank == 4
    assert sorted(fused.valencies[1:]) == [2, 2, 4]

    full = group_closure(_algebraic_maps(X3), X3.rank)
    merged = algebraic_fusion(X3, full)
    assert merged.rank == 2


def test_algebraic_fusion_rejects_non_algebraic():
    grid = fuse(3, SlopePartition.from_string("0112"))
    bad = (0, 1, 3, 2)    # swapping a valency-2 and the valency-4 color
    assert not is_algebraic_map(grid, bad)
    K = group_closure([bad], 4)
    with pytest.raises(NotAlgebraic):
        algebraic_fusion(grid, K)


def test_pseudocyclic_semiregular_fusions():
    # fusing along a semiregular color group keeps the scheme pseudocyclic
    for p in (3, 5):
        X = build_affine_scheme(p)
        cycle = (0,) + tuple(range(2, p + 2)) + (1,)   # (p+1)-cycle on colors
        for d in range(1, p + 2):
            if (p + 1) % d:
                continue
            power = cycle
            step = (p + 1) // d
            perm = list(range(p + 2))
            for c in range(1, p + 2):
                x = c
                for _ in range(step):
                    x = cycle[x]
                perm[c] = x
            K = group_closure([tuple(perm)], p + 2)
            fused = algebraic_fusion(X, K)
            assert is_pseudocyclic(fused), (p, d)


def test_serialization_round_trip():
    for X in (trivial_scheme(4), build_affine_scheme(3),
              fuse(5, SlopePartition.from_string("001122"))):
        blob = scheme_to_bytes(X)
        Y = scheme_from_bytes(blob)
        assert Y == X
        assert Y.star == X.star
        assert np.array_equal(Y.tensor, X.tensor)
        assert scheme_digest(Y) == scheme_digest(X)
    blob = scheme_to_bytes(trivial_scheme(4))
    corrupted = bytearray(blob)
    corrupted[0] = 0
    # bad magic, a header cut short, trailing bytes, a body cut short
    for data in (bytes(corrupted), b"AFSC", blob[:12], blob + b"xx", blob[:-1]):
        with pytest.raises(ValueError):
            scheme_from_bytes(data)
