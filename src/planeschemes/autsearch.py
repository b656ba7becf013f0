"""Combinatorial automorphism groups of schemes.

Color refinement plus individualization backtracking, in the standard
partition-backtrack shape: the first path of the search tree is the base;
sibling branches are pruned by refinement-trace mismatch and by orbits of
the generators found so far.  Below a sibling x of b_i, each node whose
trace matches the base path's offers the map of the base coloring at its
depth onto its own, cell by cell (McKay & Piperno): it is accepted if it
fixes b_0..b_{i-1}, maps b_i to x and keeps the full color matrix, and
otherwise the search goes on below the node.

The group order is the product of the base-orbit lengths (McKay & Piperno's
group-size rule; a base and strong generating set in Seress's terms).  At
depth i every sibling of b_i that the generators of deviation depth >= i do
not already reach is searched exhaustively (an automorphism g that fixes
b_0..b_{i-1} and maps b_i to x leads below x to a leaf whose map is g), so
those generators reach the whole orbit of b_i under the pointwise stabiliser
of b_0..b_{i-1}; the base leaf is discrete, so the stabiliser of the whole
base is trivial.  Neither a Schreier-Sims run nor collision-free traces are needed.

The same induction gives the 2-orbit count.  From the discrete base leaf
upwards, the generators of deviation depth >= i generate the pointwise
stabiliser of b_0..b_{i-1}: they lie in it and reach the whole orbit of b_i
under it, and those of depth >= i+1 generate the stabiliser of b_i in it.
So when the orbit of b_0 is every point, the generators of depth >= 1
generate the stabiliser of b_0, and the 2-orbits of a transitive group are
in bijection with the orbits of a point stabiliser (the 2-orbit of (b_0, w)
meets row b_0 in the suborbit of w).  The count is read off those n points
instead of the n^2 pairs; an intransitive group is counted by `orbitals`.

The caller may pass automorphisms it already knows.  They are checked up
front and join the generators when the first descent reaches the base leaf,
each at its deviation depth: the first i with g[b_i] != b_i, so that it fixes
b_0..b_{i-1}.  The sibling loops stay exhaustive, so the order rule above is
unchanged; the known maps only put more siblings in the orbits already
reached, and those are pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvariantViolated
from .permgroup import Perm, is_permutation, orbit_of, orbits
from .scheme import Scheme, color_lut

DEFAULT_NODE_CAP = 10**7
MAX_AUT_POINTS = 400


@dataclass(frozen=True)
class AutGroup:
    """Automorphism group of a scheme: verified generators, exact order and 2-orbit count."""

    degree: int
    generators: tuple[Perm, ...]
    order: int
    nodes: int
    orbital_count: int


def is_automorphism(M: np.ndarray, g) -> bool:
    """Whether g is an integer permutation of the points of M with M[g][:, g] == M."""
    return is_permutation(g, len(M)) and bool(np.array_equal(M.take(g, 0).take(g, 1), M))


def _pairs(X: Scheme) -> np.ndarray:
    """(n, n) int64 pair index v*r + color(v, w), the bins `_refine` counts into."""
    return np.arange(X.n, dtype=np.int64)[:, None] * X.rank + X.matrix


def _refine(pairs: np.ndarray, r: int, col: np.ndarray):
    """Coarsest stable refinement of a point coloring.

    Two points stay in one cell only if they have equal counts of s-colored
    neighbors in every cell, for every color s.  Cells are renumbered by
    sorted signature each round, so the numbering is deterministic and a
    step never merges cells.  Returns (coloring, trace) where the trace
    hashes the per-round signature tables; automorphic colorings and only
    plausibly-automorphic ones share a trace.  `pairs` is `_pairs` of a
    rank-r scheme, and `col` must number its cells 0..k-1 with none empty.

    Each round is one np.bincount: the pair (v, w) lands in bin
    (v*r + color(v, w)) * ncells + col[w], so row v of the (n, r*ncells)
    counts holds v's s-colored neighbors in cell c at column s*ncells + c.
    """
    n = len(col)
    ncells = int(col.max()) + 1
    trace = ncells
    while ncells < n:
        counts = np.bincount((pairs * ncells + col).ravel(), minlength=n * r * ncells)
        sig = np.concatenate([col[:, None], counts.reshape(n, r * ncells)], axis=1)
        # every entry lies in 0..n and n <= MAX_AUT_POINTS < 2**16, so each
        # row packs into one fixed-width key of big-endian 16-bit words, and
        # byte order on the keys is the lexicographic row order of sig
        keys = np.ascontiguousarray(sig, dtype=">u2").view(f"S{2 * sig.shape[1]}").ravel()
        order = np.argsort(keys, kind="stable")
        k = keys[order]
        first = np.ones(n, dtype=bool)
        first[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(first)
        uniq = sig[order[starts]]
        cnt = np.append(starts[1:], n) - starts
        trace = hash((trace, uniq.tobytes(), cnt.tobytes()))
        new_ncells = len(starts)
        if new_ncells == ncells:
            break
        col = np.empty(n, dtype=np.int64)
        col[order] = np.cumsum(first) - 1
        ncells = new_ncells
    return col, (ncells, trace)


def refine(X: Scheme, initial) -> np.ndarray:
    """Public entry: stable refinement of `initial` under the colors of X.

    Labels need not be contiguous; they are renumbered 0..k-1 in increasing
    order first.  Raises ValueError on a negative label or one that is no
    int64 integer.
    """
    given = np.asarray(initial)
    with np.errstate(invalid="ignore"):          # NaN and out-of-range labels fail below
        col = given.astype(np.int64)
    if col.shape != (X.n,):
        raise ValueError("initial coloring must assign one cell per point")
    if given.dtype != np.int64 and not np.array_equal(col, given):
        raise ValueError("initial coloring labels must be integers in the int64 range")
    if col.min() < 0:
        raise ValueError("initial coloring has a negative label")
    _, col = np.unique(col, return_inverse=True)
    out, _ = _refine(_pairs(X), X.rank, col)
    return out


def _target_cell(col: np.ndarray):
    """First smallest non-singleton cell; None when the coloring is discrete."""
    sizes = np.bincount(col)
    big = np.nonzero(sizes > 1)[0]
    if big.size == 0:
        return None
    best = big[np.argmin(sizes[big])]
    return np.nonzero(col == best)[0]


class _AutSearch:
    def __init__(self, X: Scheme, node_cap: int, known: list[np.ndarray]):
        self.M = X.matrix
        self.pairs = _pairs(X)
        self.rank = X.rank
        self.cap = node_cap
        self.known = known
        self.nodes = 0
        self.base: list[int] = []
        self.base_digests: list[tuple] = []
        self.base_ranks: list[np.ndarray] = []  # each point's place in the sorted base coloring
        self.generators: list[tuple[int, list[int]]] = []  # (deviation depth, perm)
        self.orbit_lengths: list[int] = []  # |orbit of b_i|, deepest base point first

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.cap:
            raise BudgetExceeded(f"automorphism search exceeded {self.cap} nodes")

    def _child(self, col: np.ndarray, point: int):
        self._tick()
        nxt = col.copy()
        nxt[point] = col.max() + 1
        return _refine(self.pairs, self.rank, nxt)

    def run(self, col0: np.ndarray, digest0: tuple):
        self.base_digests.append(digest0)
        self._base_node(col0, 0)

    def _base_node(self, col: np.ndarray, depth: int):
        self.base_ranks.append(np.argsort(np.argsort(col, kind="stable")))
        cell = _target_cell(col)
        if cell is None:
            self._add_known()
            return
        b = int(cell[0])
        self.base.append(b)
        child_col, child_dig = self._child(col, b)
        self.base_digests.append(child_dig)
        self._base_node(child_col, depth + 1)
        # every generator found so far fixes b_0..b_{depth-1}; the orbit of b
        # grows only when a sibling below yields a new generator
        orbit = self._orbit(b, depth)
        for x in cell[1:]:
            x = int(x)
            if x in orbit:
                continue
            cand_col, cand_dig = self._child(col, x)
            if cand_dig != self.base_digests[depth + 1]:
                continue
            sigma = self._subtree(cand_col, depth + 1, depth, x)
            if sigma is not None:
                self.generators.append((depth, sigma.tolist()))
                orbit = self._orbit(b, depth)
        self.orbit_lengths.append(len(orbit))

    def _add_known(self):
        """Enter each known automorphism at its deviation depth, the first i
        with g[b_i] != b_i; one that fixes the whole base is the identity."""
        base = np.array(self.base, dtype=np.int64)
        for g in self.known:
            moved = np.flatnonzero(g[base] != base)
            if moved.size:
                self.generators.append((int(moved[0]), g.tolist()))

    def _orbit(self, b: int, depth: int) -> set[int]:
        """Orbit of b under the generators of deviation depth >= depth."""
        return set(orbit_of([g for d, g in self.generators if d >= depth], b))

    def _subtree(self, col: np.ndarray, depth: int, dev: int, x: int):
        """First verified automorphism at or below this node, whose trace is the base
        path's, that fixes b_0..b_{dev-1} and maps b_dev to x; None if there is none."""
        sigma = np.argsort(col, kind="stable")[self.base_ranks[depth]]
        base = self.base
        if (sigma[base[dev]] == x and np.array_equal(sigma[base[:dev]], base[:dev])
                and is_automorphism(self.M, sigma)):
            return sigma
        cell = _target_cell(col)
        if cell is None:
            return None
        for y in cell:
            cand_col, cand_dig = self._child(col, int(y))
            if cand_dig != self.base_digests[depth + 1]:
                continue
            found = self._subtree(cand_col, depth + 1, dev, x)
            if found is not None:
                return found
        return None


def automorphism_group(X: Scheme, node_cap: int = DEFAULT_NODE_CAP,
                       known=()) -> AutGroup:
    """Generators, exact order and 2-orbit count of aut(X), and the search nodes visited.

    The order is the product of the base-orbit lengths the search leaves
    behind: the orbit of b_i under the pointwise stabiliser of b_0..b_{i-1}
    is complete because the sibling loop at depth i is exhaustive, and only
    the identity fixes the whole base (see the module docstring).  When
    aut(X) is transitive, the 2-orbit count is the number of orbits on the
    points of the generators of deviation depth >= 1, which generate the
    stabiliser of b_0, and the count is exact for the same reason as the
    order; otherwise `orbitals` counts the 2-orbits on the pairs.  `known`
    automorphisms of X join the generators at the base leaf, so siblings
    they reach are pruned; the result's generators and nodes depend on them,
    its order and count do not.  Raises ValueError when a known map is not
    an integer automorphism of X, BudgetExceeded when the search tree
    outgrows `node_cap`, and InvariantViolated when a 2-orbit crosses a
    color class.  Every returned generator passed `is_automorphism` once,
    where it entered: a known map up front, a found one in `_subtree`.
    """
    if X.n > MAX_AUT_POINTS:
        raise ValueError(f"automorphism search supports at most {MAX_AUT_POINTS} points")
    known = [np.asarray(g) for g in known]
    for g in known:
        if not is_automorphism(X.matrix, g):
            raise ValueError("a known map is not an integer automorphism of the scheme")
    search = _AutSearch(X, node_cap, known)
    col0 = np.zeros(X.n, dtype=np.int64)
    col0, digest0 = _refine(search.pairs, X.rank, col0)
    search.run(col0, digest0)
    gens = [tuple(g) for _, g in search.generators]
    if search.orbit_lengths and search.orbit_lengths[-1] == X.n:
        count = _suborbit_count(X, search.base[0],
                                [g for d, g in search.generators if d >= 1])
    else:
        count = orbital_count(X, gens)
    return AutGroup(X.n, tuple(gens), math.prod(search.orbit_lengths), search.nodes, count)


def _suborbit_count(X: Scheme, b0: int, stabiliser) -> int:
    """Number of orbits on the points of `stabiliser`, generators of the
    stabiliser of b0 in a transitive group of automorphisms of X: its number
    of 2-orbits.  Raises InvariantViolated when a suborbit crosses a color of
    row b0, as a 2-orbit crossing a color class would."""
    suborbits = orbits(stabiliser, X.n)
    labels = np.empty(X.n, dtype=np.int64)
    for i, orbit in enumerate(suborbits):
        labels[orbit] = i
    if color_lut(labels, X.matrix[b0]) is None:
        raise InvariantViolated("a suborbit crosses a color class")
    return len(suborbits)


def orbitals(generators, n: int):
    """2-orbit partition of the group generated by `generators` on n points.

    Returns (labels, count): labels is an (n, n) array of cell indices,
    numbered by least pair in row-major order.  Each pair carries the least
    pair known in its 2-orbit; the labels are pushed along every generator's
    pair map, both ways, and shortened by pointer jumping until stable, when
    each pair carries the least pair of its 2-orbit.  Those least pairs are
    the roots, the pairs that carry themselves; a running count of the roots
    numbers the cells.
    """
    pmaps = [
        (np.asarray(g)[:, None] * n + np.asarray(g)[None, :]).ravel()
        for g in generators
    ]
    low = np.arange(n * n, dtype=np.int64)
    while True:
        before = low
        for pm in pmaps:
            low = np.minimum(low, low[pm])
            low[pm] = np.minimum(low[pm], low)
        low = low[low]
        if np.array_equal(low, before):
            break
    roots = low == np.arange(n * n)
    number = np.cumsum(roots) - 1
    return number[low].reshape(n, n), int(roots.sum())


def orbital_count(X: Scheme, generators) -> int:
    """Number of 2-orbits of the group generated by `generators`.

    For automorphisms of X the 2-orbits refine the colors, so X is schurian
    exactly when the count equals its rank.  Raises InvariantViolated when a
    2-orbit crosses a color class.
    """
    labels, count = orbitals(generators, X.n)
    if color_lut(labels, X.matrix) is None:
        raise InvariantViolated("an orbital crosses a color class")
    return count


def is_schurian(X: Scheme, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Whether the 2-orbits of aut(X) are exactly the colors of X.

    The 2-orbits refine the colors, so this holds exactly when their number,
    `automorphism_group`'s count (the suborbits of b_0 when aut(X) is
    transitive), equals the rank.
    """
    return automorphism_group(X, node_cap).orbital_count == X.rank
