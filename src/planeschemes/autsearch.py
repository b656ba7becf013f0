"""Combinatorial automorphism groups of schemes.

Color refinement plus individualization backtracking, in the standard
partition-backtrack shape: the first path of the search tree is the base;
sibling branches are pruned by refinement-trace mismatch and by orbits of
the generators found so far; every leaf permutation is verified against the
full color matrix before it is accepted.

The group order is the product of the base-orbit lengths (McKay & Piperno's
group-size rule; a base and strong generating set in Seress's terms).  At
depth i every sibling of b_i that the generators of deviation depth >= i do
not already reach is searched exhaustively, so those generators reach the
whole orbit of b_i under the pointwise stabiliser of b_0..b_{i-1}; the base
leaf is discrete, so the stabiliser of the whole base is trivial.  No
Schreier-Sims run is needed.

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
from .permgroup import Perm, orbit_of
from .scheme import Scheme

DEFAULT_NODE_CAP = 10**7
MAX_AUT_POINTS = 400


@dataclass(frozen=True)
class AutGroup:
    """Automorphism group of a scheme: verified generators and exact order."""

    degree: int
    generators: tuple[Perm, ...]
    order: int
    nodes: int


def _refine(stack: np.ndarray, col: np.ndarray):
    """Coarsest stable refinement of a point coloring.

    Two points stay in one cell only if they have equal counts of s-colored
    neighbors in every cell, for every color s.  Cells are renumbered by
    sorted signature each round, so the numbering is deterministic and a
    step never merges cells.  Returns (coloring, trace) where the trace
    hashes the per-round signature tables; automorphic colorings and only
    plausibly-automorphic ones share a trace.  `col` must number its cells
    0..k-1 with none empty.
    """
    r, n, _ = stack.shape
    ncells = int(col.max()) + 1
    trace = ncells
    while ncells < n:
        onehot = np.zeros((n, ncells))
        onehot[np.arange(n), col] = 1.0
        counts = stack @ onehot                      # (r, n, ncells)
        sig = np.concatenate(
            [
                col[:, None],
                np.rint(counts).astype(np.int64).transpose(1, 0, 2).reshape(n, r * ncells),
            ],
            axis=1,
        )
        # every entry lies in 0..n and n <= MAX_AUT_POINTS < 2**16, so each
        # row packs into one fixed-width key of big-endian 16-bit words, and
        # byte order on the keys is the lexicographic row order that
        # np.unique(sig, axis=0) sorts by
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
    order first.  Raises ValueError on a negative label.
    """
    col = np.asarray(initial, dtype=np.int64)
    if col.shape != (X.n,):
        raise ValueError("initial coloring must assign one cell per point")
    if col.min() < 0:
        raise ValueError("initial coloring has a negative label")
    _, col = np.unique(col, return_inverse=True)
    out, _ = _refine(X.color_stack, col)
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
        self.stack = X.color_stack
        self.n = X.n
        self.cap = node_cap
        self.known = known
        self.nodes = 0
        self.base: list[int] = []
        self.base_digests: list[tuple] = []
        self.base_leaf_order: np.ndarray | None = None
        self.generators: list[tuple[int, np.ndarray]] = []  # (deviation depth, perm)
        self.orbit_lengths: list[int] = []  # |orbit of b_i|, deepest base point first

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.cap:
            raise BudgetExceeded(f"automorphism search exceeded {self.cap} nodes")

    def _child(self, col: np.ndarray, point: int):
        self._tick()
        nxt = col.copy()
        nxt[point] = col.max() + 1
        return _refine(self.stack, nxt)

    def _is_automorphism(self, sigma: np.ndarray) -> bool:
        return bool(np.array_equal(self.M[np.ix_(sigma, sigma)], self.M))

    def _leaf_sigma(self, col: np.ndarray) -> np.ndarray:
        order = np.argsort(col)
        sigma = np.empty(self.n, dtype=np.int64)
        sigma[self.base_leaf_order] = order
        return sigma

    def run(self, col0: np.ndarray, digest0: tuple):
        self.base_digests.append(digest0)
        self._base_node(col0, 0)

    def _base_node(self, col: np.ndarray, depth: int):
        cell = _target_cell(col)
        if cell is None:
            self.base_leaf_order = np.argsort(col)
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
            sigma = self._subtree(cand_col, depth + 1)
            if sigma is not None:
                self.generators.append((depth, sigma))
                orbit = self._orbit(b, depth)
        self.orbit_lengths.append(len(orbit))

    def _add_known(self):
        """Enter each known automorphism at its deviation depth, the first i
        with g[b_i] != b_i; one that fixes the whole base is the identity."""
        base = np.array(self.base, dtype=np.int64)
        for g in self.known:
            moved = np.flatnonzero(g[base] != base)
            if moved.size:
                self.generators.append((int(moved[0]), g))

    def _orbit(self, b: int, depth: int) -> set[int]:
        """Orbit of b under the generators of deviation depth >= depth."""
        return set(orbit_of([g.tolist() for d, g in self.generators if d >= depth], b))

    def _subtree(self, col: np.ndarray, depth: int):
        """First verified automorphism whose leaf lies under this node, or None."""
        cell = _target_cell(col)
        if cell is None:
            sigma = self._leaf_sigma(col)
            if self._is_automorphism(sigma):
                return sigma
            return None
        for x in cell:
            cand_col, cand_dig = self._child(col, int(x))
            if cand_dig != self.base_digests[depth + 1]:
                continue
            found = self._subtree(cand_col, depth + 1)
            if found is not None:
                return found
        return None


def automorphism_group(X: Scheme, node_cap: int = DEFAULT_NODE_CAP,
                       known=()) -> AutGroup:
    """Generators and exact order of aut(X), and the search nodes visited.

    The order is the product of the base-orbit lengths the search leaves
    behind: the orbit of b_i under the pointwise stabiliser of b_0..b_{i-1}
    is complete because the sibling loop at depth i is exhaustive, and only
    the identity fixes the whole base (see the module docstring).  `known`
    automorphisms of X join the generators at the base leaf, so siblings
    they reach are pruned; the result's generators and nodes depend on them,
    its order does not.  Raises ValueError when a known map is not an
    automorphism of X, and BudgetExceeded when the search tree outgrows
    `node_cap`.  Every returned generator is re-verified to fix every color
    class.
    """
    if X.n > MAX_AUT_POINTS:
        raise ValueError(f"automorphism search supports at most {MAX_AUT_POINTS} points")
    known = [np.asarray(g, dtype=np.int64) for g in known]
    search = _AutSearch(X, node_cap, known)
    for g in known:
        if not (np.array_equal(np.sort(g), np.arange(X.n)) and search._is_automorphism(g)):
            raise ValueError("a known map is not an automorphism of the scheme")
    col0 = np.zeros(X.n, dtype=np.int64)
    col0, digest0 = _refine(X.color_stack, col0)
    search.run(col0, digest0)
    gens = []
    for _, g in search.generators:
        if not search._is_automorphism(g):
            raise InvariantViolated("search produced a non-automorphism")
        gens.append(tuple(int(v) for v in g))
    return AutGroup(X.n, tuple(gens), math.prod(search.orbit_lengths), search.nodes)


def orbitals(generators, n: int):
    """2-orbit partition of the group generated by `generators` on n points.

    Returns (labels, count): labels is an (n, n) array of cell indices,
    numbered by least pair in row-major order.  Each pair carries the least
    pair known in its 2-orbit; the labels are pushed along every generator's
    pair map, both ways, and shortened by pointer jumping until stable, when
    each pair carries the least pair of its 2-orbit.
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
    least, labels = np.unique(low, return_inverse=True)
    return labels.reshape(n, n), len(least)


def orbital_count(X: Scheme, generators) -> int:
    """Number of 2-orbits of the group generated by `generators`.

    For automorphisms of X the 2-orbits refine the colors, so X is schurian
    exactly when the count equals its rank.  Raises InvariantViolated when a
    2-orbit crosses a color class.
    """
    labels, count = orbitals(generators, X.n)
    pairs = np.unique(labels.ravel() * np.int64(X.rank) + X.matrix.ravel())
    if len(pairs) != count:
        raise InvariantViolated("an orbital crosses a color class")
    return count


def is_schurian(X: Scheme, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Whether the 2-orbits of aut(X) are exactly the colors of X."""
    return orbital_count(X, automorphism_group(X, node_cap).generators) == X.rank
