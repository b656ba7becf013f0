"""Combinatorial automorphism groups of schemes.

Color refinement plus individualization backtracking, in the standard
partition-backtrack shape: the first path of the search tree is the base;
sibling branches are pruned by refinement-trace mismatch and by orbits of
the generators found so far; every leaf permutation is verified against the
full color matrix before it is accepted.  Group order comes from a
Schreier-Sims stabilizer chain over the returned generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InvariantViolated
from .permgroup import Perm, StabilizerChain, orbit_of
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
    plausibly-automorphic ones share a trace.
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
        uniq, new, cnt = np.unique(sig, axis=0, return_inverse=True, return_counts=True)
        new = new.reshape(-1)
        trace = hash((trace, uniq.tobytes(), cnt.tobytes()))
        new_ncells = len(uniq)
        if new_ncells == ncells:
            break
        col = new.astype(np.int64)
        ncells = new_ncells
    return col, (ncells, trace)


def refine(X: Scheme, initial) -> np.ndarray:
    """Public entry: stable refinement of `initial` under the colors of X."""
    col = np.asarray(initial, dtype=np.int64)
    if col.shape != (X.n,):
        raise ValueError("initial coloring must assign one cell per point")
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
    def __init__(self, X: Scheme, node_cap: int):
        self.M = X.matrix
        self.stack = X.color_stack
        self.n = X.n
        self.cap = node_cap
        self.nodes = 0
        self.base_digests: list[tuple] = []
        self.base_leaf_order: np.ndarray | None = None
        self.generators: list[tuple[int, np.ndarray]] = []  # (deviation depth, perm)

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
            return
        b = int(cell[0])
        child_col, child_dig = self._child(col, b)
        self.base_digests.append(child_dig)
        self._base_node(child_col, depth + 1)
        for x in cell[1:]:
            x = int(x)
            if x in orbit_of([g for d, g in self.generators if d >= depth], b):
                continue
            cand_col, cand_dig = self._child(col, x)
            if cand_dig != self.base_digests[depth + 1]:
                continue
            sigma = self._subtree(cand_col, depth + 1)
            if sigma is not None:
                self.generators.append((depth, sigma))

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


def automorphism_group(X: Scheme, node_cap: int = DEFAULT_NODE_CAP) -> AutGroup:
    """Generators and exact order of aut(X), and the search nodes visited.

    Raises BudgetExceeded when the search tree outgrows `node_cap`.  Every
    returned generator is re-verified to fix every color class.
    """
    if X.n > MAX_AUT_POINTS:
        raise ValueError(f"automorphism search supports at most {MAX_AUT_POINTS} points")
    search = _AutSearch(X, node_cap)
    col0 = np.zeros(X.n, dtype=np.int64)
    col0, digest0 = _refine(X.color_stack, col0)
    search.run(col0, digest0)
    gens = []
    for _, g in search.generators:
        if not search._is_automorphism(g):
            raise InvariantViolated("search produced a non-automorphism")
        gens.append(tuple(int(v) for v in g))
    return AutGroup(X.n, tuple(gens), StabilizerChain(gens, X.n).order(), search.nodes)


def orbitals(generators, n: int):
    """2-orbit partition of the group generated by `generators` on n points.

    Returns (labels, count): labels is an (n, n) array of cell indices,
    numbered by least pair in row-major order.
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
