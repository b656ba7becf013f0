"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's own fast paths: counts are
direct loops, group orders come from filtering all n! permutations, and the
partition count is an independent recursion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import comb, gcd, prod

import numpy as np

from planeschemes.affine import SlopePartition, partitions_iter
from planeschemes.errors import InconsistentIntersection, InvariantViolated, NotStarClosed
from planeschemes.permgroup import group_closure
from planeschemes.projline import pgl_elements, pgl_inv, pgl_mul, point_permutation
from planeschemes.classify import _color_map
from planeschemes.scheme import (
    color_lut,
    parabolic_classes,
    parabolic_from_colors,
    trivial_scheme,
    verify_scheme,
    wreath_product,
)
from planeschemes.subgroups import _slope_images, generator_matrices, pgl_orbit


def direct_intersection_count(matrix, r, s, alpha, beta) -> int:
    """|{gamma : m[alpha,gamma]=r and m[gamma,beta]=s}| by a plain loop."""
    n = matrix.shape[0]
    return sum(
        1 for g in range(n) if matrix[alpha, g] == r and matrix[g, beta] == s
    )


def brute_force_aut_order(matrix) -> int:
    """Count color-preserving permutations by enumerating all n! of them."""
    m = np.asarray(matrix)
    n = m.shape[0]
    assert n <= 9, "brute force capped at 9 points"
    count = 0
    batch = []

    def flush():
        nonlocal count
        if not batch:
            return
        arr = np.array(batch)
        imgs = m[arr[:, :, None], arr[:, None, :]]
        count += int((imgs == m[None]).all(axis=(1, 2)).sum())
        batch.clear()

    for perm in permutations(range(n)):
        batch.append(perm)
        if len(batch) == 20000:
            flush()
    flush()
    return count


def count_set_partitions(n: int) -> int:
    """Independent recursive count of set partitions (no Bell triangle)."""
    def rec(rest: tuple[int, ...]) -> int:
        if not rest:
            return 1
        first, others = rest[0], rest[1:]
        total = 0
        # choose the block of `first` among all subsets of the others
        for mask in range(1 << len(others)):
            remaining = tuple(o for i, o in enumerate(others) if not mask >> i & 1)
            total += rec(remaining)
        return total

    return rec(tuple(range(n)))


def enumerate_partitions_naive(n: int) -> set[tuple[int, ...]]:
    """All canonical RGS strings via assignment search, for cross-checking."""
    out: set[tuple[int, ...]] = set()

    def rec(prefix: list[int]):
        if len(prefix) == n:
            out.add(tuple(prefix))
            return
        top = max(prefix) if prefix else -1
        for v in range(top + 2):
            rec(prefix + [v])

    rec([0])
    return out


def bfs_orbitals(generators, n: int):
    """2-orbits by breadth-first search from each unlabelled pair in turn.

    Returns (labels, count) with cells numbered by least pair in row-major
    order, the contract of `autsearch.orbitals`.
    """
    pmaps = [
        (np.asarray(g)[:, None] * n + np.asarray(g)[None, :]).ravel()
        for g in generators
    ]
    labels = np.full(n * n, -1, dtype=np.int64)
    nxt = 0
    for pid in range(n * n):
        if labels[pid] >= 0:
            continue
        labels[pid] = nxt
        frontier = np.array([pid])
        while frontier.size and pmaps:
            imgs = np.unique(np.concatenate([pm[frontier] for pm in pmaps]))
            fresh = imgs[labels[imgs] < 0]
            labels[fresh] = nxt
            frontier = fresh
        nxt += 1
    return labels.reshape(n, n), nxt


def unique_refine(matrix, col):
    """Colour refinement by one-hot matrix products, grouping rows with np.unique(axis=0).

    The reference for `autsearch._refine`: the same signatures, cell numbering
    and trace, with the neighbour counts taken by float matmuls against a
    one-hot stack of the colours of `matrix` and the rows grouped by a
    different routine.
    """
    m = np.asarray(matrix)
    r, n = int(m.max()) + 1, m.shape[0]
    stack = (m == np.arange(r)[:, None, None]).astype(np.float64)
    ncells = int(col.max()) + 1
    trace = ncells
    while ncells < n:
        onehot = np.zeros((n, ncells))
        onehot[np.arange(n), col] = 1.0
        counts = stack @ onehot
        sig = np.concatenate(
            [
                col[:, None],
                np.rint(counts).astype(np.int64).transpose(1, 0, 2).reshape(n, r * ncells),
            ],
            axis=1,
        )
        uniq, new, cnt = np.unique(sig, axis=0, return_inverse=True, return_counts=True)
        trace = hash((trace, uniq.tobytes(), cnt.tobytes()))
        if len(uniq) == ncells:
            break
        col = new.reshape(-1).astype(np.int64)
        ncells = len(uniq)
    return col, (ncells, trace)


def unique_pgl_orbit(p, P):
    """`subgroups.pgl_orbit` with the canonical rows grouped by np.unique(axis=0).

    The reference for the byte-key grouping: the same members in the same
    order, each with the first table row that gives it.
    """
    images = _slope_images(p, P)
    first = (images[:, :, None] == np.arange(P.num_blocks)).argmax(axis=1)
    renumber = np.argsort(np.argsort(first, axis=1), axis=1)
    canon = np.take_along_axis(renumber, images, axis=1)
    members, index = np.unique(canon, axis=0, return_index=True)
    return dict(zip(map(tuple, members.tolist()), index.tolist()))


def pgl_orbit_count(p: int) -> int:
    """The number of PGL(2,p) orbits on the set partitions of the p+1 slopes.

    Burnside's mean number of fixed partitions, over the four cycle types of
    PGL(2,p) on the projective line: the identity; p^2 - 1 unipotent elements
    (one fixed point, one p-cycle); phi(d) p(p+1)/2 elements for each d > 1
    dividing p - 1 (two fixed points, d-cycles); phi(d) p(p-1)/2 for each
    d > 1 dividing p + 1 (d-cycles only).  A partition fixed by g groups g's
    cycles into the unions of its orbits of blocks, and a group S of cycles
    gives sum over m dividing the gcd of S's lengths of m^(|S| - 1) such
    unions, m blocks each.  Nothing is enumerated.
    """
    def phi(d):
        return sum(gcd(k, d) == 1 for k in range(1, d + 1))

    @lru_cache(maxsize=None)
    def fixed(cycles: tuple[tuple[int, int], ...]) -> int:
        """Fixed partitions for the cycle type ((length, how many), ...)."""
        cycles = tuple((length, n) for length, n in cycles if n)
        if not cycles:
            return 1
        first, rest = cycles[0][0], ((cycles[0][0], cycles[0][1] - 1),) + cycles[1:]
        total = 0
        for took in product(*(range(n + 1) for _, n in rest)):
            group = [first] + [length for (length, _), t in zip(rest, took) for _ in range(t)]
            g = gcd(*group)
            unions = sum(m ** (len(group) - 1) for m in range(1, g + 1) if g % m == 0)
            ways = prod(comb(n, t) for (_, n), t in zip(rest, took))
            left = tuple((length, n - t) for (length, n), t in zip(rest, took))
            total += ways * unions * fixed(left)
        return total

    total = fixed(((1, p + 1),)) + (p * p - 1) * fixed(((1, 1), (p, 1)))
    for d in range(2, p + 2):
        if (p - 1) % d == 0:
            total += phi(d) * p * (p + 1) // 2 * fixed(((1, 2), (d, (p - 1) // d)))
        if (p + 1) % d == 0:
            total += phi(d) * p * (p - 1) // 2 * fixed(((d, (p + 1) // d),))
    assert total % (p**3 - p) == 0
    return total // (p**3 - p)


def unique_verify_scheme(matrix):
    """The scheme check with one np.unique per colour, as (star, tensor).

    The reference for `scheme.verify_scheme`: the same checks in the same
    order, raising the same exceptions with the same arguments, with the
    colours counted by np.unique, the star map read one colour at a time and
    the one-hot stack filled colour by colour.
    """
    m = np.ascontiguousarray(np.asarray(matrix, dtype=np.int16))
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError("color matrix must be square")
    if n == 0:
        raise ValueError("empty point set")
    colors = np.unique(m)
    r = int(colors[-1]) + 1
    if not np.array_equal(colors, np.arange(r)):
        raise ValueError("colors must be exactly 0..r-1, all occurring")
    if np.any(np.diag(m) != 0):
        raise ValueError("diagonal must have color 0")
    off = m[~np.eye(n, dtype=bool)]
    if off.size and off.min() == 0:
        raise ValueError("color 0 must not occur off the diagonal")

    star = []
    for s in range(r):
        vals = np.unique(m.T[m == s])
        if len(vals) != 1:
            raise NotStarClosed(f"transpose of color {s} meets colors {vals.tolist()}")
        star.append(int(vals[0]))
    for s, t in enumerate(star):
        if star[t] != s:
            raise NotStarClosed(f"star map is not an involution at color {s}")

    flat = m.ravel()
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(r))
    bounds = np.append(starts, n * n)
    stack = np.zeros((r, n, n))
    for s in range(r):
        stack[s][m == s] = 1.0
    tensor = np.zeros((r, r, r), dtype=np.int64)
    for rr in range(r):
        prods = stack[rr] @ stack
        counts = np.rint(prods.reshape(r, n * n)[:, order]).astype(np.int64)
        mins = np.minimum.reduceat(counts, starts, axis=1)
        maxs = np.maximum.reduceat(counts, starts, axis=1)
        if not np.array_equal(mins, maxs):
            s, t = np.argwhere(mins != maxs)[0]
            seg = counts[s, bounds[t]:bounds[t + 1]]
            pair_ids = order[bounds[t]:bounds[t + 1]]
            i1 = pair_ids[int(np.argmin(seg))]
            i2 = pair_ids[int(np.argmax(seg))]
            raise InconsistentIntersection(
                rr, int(s), int(t),
                (int(i1) // n, int(i1) % n), (int(i2) // n, int(i2) % n),
            )
        tensor[rr] = mins
    tensor.setflags(write=False)
    return tuple(star), tensor


def subset_parabolics(X):
    """Parabolics as (colors, num_classes, class_size) by testing every union of star-orbits.

    The reference for `scheme.parabolics`: 2^k candidate subsets for k
    star-orbits of nonzero colors, in increasing order of the subset read as
    a binary number (bit i for the i-th star-orbit by least color), each kept
    when every product of two of its colors stays inside it.
    """
    pairs, seen = [], set()
    for s in range(1, X.rank):
        if s not in seen:
            seen.update((s, X.star[s]))
            pairs.append({s, X.star[s]})
    support = X.tensor > 0
    out = []
    for mask in range(1 << len(pairs)):
        colors = {0}.union(*(cc for i, cc in enumerate(pairs) if mask >> i & 1))
        inside = np.zeros(X.rank, dtype=bool)
        inside[list(colors)] = True
        if any(support[a, b, ~inside].any() for a in colors for b in colors):
            continue
        class_size = sum(X.valencies[s] for s in colors)
        out.append((frozenset(colors), X.n // class_size, class_size))
    return out


def union_find_quotient_matrix(X, colors):
    """The quotient color matrix on the classes of a parabolic, by union-find.

    The reference for `scheme.quotient`: classes numbered by least member in
    a plain loop, colors meeting a common class pair merged with a
    union-find, quotient colors numbered by least merged color.
    """
    in_e = np.isin(X.matrix, list(colors))
    cls = np.full(X.n, -1, dtype=np.int64)
    k = 0
    for a in range(X.n):
        if cls[a] < 0:
            cls[in_e[a]] = k
            k += 1
    parent = list(range(X.rank))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    first_color = {}
    for a in range(X.n):
        for b in range(X.n):
            bid, c = int(cls[a] * k + cls[b]), int(X.matrix[a, b])
            if bid not in first_color:
                first_color[bid] = c
            ra, rb = find(first_color[bid]), find(c)
            parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(c) for c in range(X.rank)})
    qm = np.zeros((k, k), dtype=np.int16)
    for bid, c in first_color.items():
        qm[bid // k, bid % k] = roots.index(find(c))
    return qm


def minimum_at_quotient(X, cls, k):
    """The quotient scheme on the k classes cls, verified by `verify_scheme` on every call.

    The reference for `scheme.quotient` and `scheme.is_subtensor`, which
    share one label step: each class pair gets the least color it meets
    (np.minimum.at), and these labels, numbered in increasing order, are the
    quotient's colors.  InvariantViolated when a color meets two labels.
    """
    block = cls[:, None] * k + cls[None, :]
    least = np.full(k * k, X.rank, dtype=X.matrix.dtype)
    np.minimum.at(least, block.ravel(), X.matrix.ravel())
    lut = color_lut(X.matrix, least[block])
    if lut is None:
        raise InvariantViolated("a color meets two quotient colors")
    used = np.zeros(X.rank, dtype=bool)
    used[lut] = True
    return verify_scheme((np.cumsum(used) - 1)[least].reshape(k, k))


@lru_cache(maxsize=None)
def _trivial_wreath(p: int):
    return wreath_product(trivial_scheme(p), trivial_scheme(p))


def wreath_by_isomorphism(p: int, X, colors) -> bool:
    """Whether X is the wreath product of two trivial schemes of degree p, with
    parabolic `colors` (a list) as its classes: an explicit isomorphism test.

    The reference for the WreathOfTrivial check, which reads the class pattern
    off X's labels instead: the stable argsort of the class indices sends point
    a1 * p + c of `wreath_product(trivial_scheme(p), trivial_scheme(p))` to the
    a1-th least member of class c, and `_color_map` asks for a color bijection
    along that point map.
    """
    e = parabolic_from_colors(X, colors) if X.rank == 3 else None
    if e is None or e.num_classes != p:
        return False
    old_of_new = np.argsort(parabolic_classes(X, e), kind="stable").reshape(p, p).T.ravel()
    return _color_map(old_of_new, X.matrix, _trivial_wreath(p).matrix) is not None


def minimum_at_is_subtensor(X, e1, e2):
    """`scheme.is_subtensor` with both quotients from `minimum_at_quotient`."""
    k1, k2 = e1.num_classes, e2.num_classes
    if k1 * k2 != X.n:
        return None
    cls1 = parabolic_classes(X, e1)
    cls2 = parabolic_classes(X, e2)
    if np.bincount(cls1 * k2 + cls2).max() != 1:
        return None
    q1 = minimum_at_quotient(X, cls1, k1)
    q2 = minimum_at_quotient(X, cls2, k2)
    p1 = q1.matrix[np.ix_(cls1, cls1)]
    p2 = q2.matrix[np.ix_(cls2, cls2)]
    key = p1.astype(np.int64) * q2.rank + p2
    return None if color_lut(X.matrix, key) is None else (q1, q2)


def orbit_representatives(p: int):
    """The least member of each PGL(2,p) orbit of slope partitions, in rgs order."""
    seen, reps = set(), []
    for P in partitions_iter(p + 1):
        if P.rgs not in seen:
            orbit = pgl_orbit(p, P)
            seen.update(orbit)
            reps.append(SlopePartition(min(orbit)))
    return sorted(reps, key=lambda P: P.rgs)


def cyclic_scheme(n: int) -> np.ndarray:
    """The color matrix of the thin scheme of Z_n: pair (i, j) has color j - i mod n."""
    i = np.arange(n)
    return ((i[None, :] - i[:, None]) % n).astype(np.int16)


def matrix_mult_table(p: int) -> np.ndarray:
    """PGL(2,p)'s multiplication table by matrix products: [i, j] indexes g_i g_j."""
    els = pgl_elements(p)
    index = {g.entries(): i for i, g in enumerate(els)}
    return np.array([[index[pgl_mul(g, h).entries()] for h in els] for g in els])


def matrix_conjugates(rep) -> list:
    """(matrices, group) of each distinct conjugate g rep g^-1, in the canonical
    order of g: rep's generator matrices conjugated by matrix products, then closed."""
    out, seen = [], set()
    for g in pgl_elements(rep.degree - 1):
        ginv = pgl_inv(g)
        mats = tuple(pgl_mul(pgl_mul(g, x), ginv) for x in generator_matrices(rep))
        grp = group_closure([point_permutation(x) for x in mats], rep.degree)
        if frozenset(grp.elements) not in seen:
            seen.add(frozenset(grp.elements))
            out.append((mats, grp))
    return out
