"""Permutation groups on small domains: closure, orbits, stabilizer chains.

Permutations are tuples p with p[i] = image of i.  Products compose left to
right: (a * b)(i) = b[a[i]].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ClosureBudgetExceeded

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(a: Perm, b: Perm) -> Perm:
    """Apply a, then b."""
    return tuple(b[x] for x in a)


def is_permutation(a, n: int) -> bool:
    try:
        a = np.asarray(a)
    except ValueError:      # a ragged sequence
        return False
    return a.shape == (n,) and a.dtype.kind in "iu" and bool((np.sort(a) == np.arange(n)).all())


def perm_order(a: Perm) -> int:
    """Order as lcm of cycle lengths."""
    n = len(a)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        order = order * length // gcd(order, length)
    return order


@dataclass(frozen=True)
class PermGroup:
    """A permutation group given by generators and all of its elements, sorted."""

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    def order(self) -> int:
        return len(self.elements)


def group_closure(generators, degree: int, cap: int = 10**6) -> PermGroup:
    """Smallest composition-closed, inverse-closed set containing the identity.

    Raises ClosureBudgetExceeded once more than `cap` elements are found.
    """
    gens = tuple(tuple(g) for g in generators)
    for g in gens:
        if not is_permutation(g, degree):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
    ident = identity_perm(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise ClosureBudgetExceeded(
                            f"closure exceeded {cap} elements"
                        )
                    nxt.append(y)
        frontier = nxt
    return PermGroup(degree, gens, tuple(sorted(seen)))


def orbit_of(generators, seed: int) -> list[int]:
    """Orbit of one point, in BFS discovery order."""
    seen = {seed}
    queue = [seed]
    for x in queue:
        for g in generators:
            y = g[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return queue


def orbits(generators, degree: int) -> list[list[int]]:
    """Orbit partition of the domain; each orbit sorted, orbits by least element."""
    left = [False] * degree
    out = []
    for i in range(degree):
        if left[i]:
            continue
        orb = sorted(orbit_of(generators, i))
        for x in orb:
            left[x] = True
        out.append(orb)
    return out


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain for exact group orders.

    Stores, per level i, the generators fixing base[:i] pointwise together
    with the orbit and transversal of base[i].  The group order equals the
    product of the fundamental orbit lengths.
    """

    def __init__(self, generators, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self._arr: list[np.ndarray] = []               # all inserted gens, by serial
        self._gens: list[list[int]] = []               # serials entering at level i
        self._orbit: list[dict[int, tuple]] = []       # point -> (t, t_inverse)
        self._checked: list[set[tuple[int, int]]] = []  # verified Schreier pairs
        self._ident = np.arange(degree, dtype=np.int32)
        self._ident_bytes = self._ident.tobytes()
        for g in generators:
            if tuple(g) != tuple(range(degree)):
                self._insert(0, np.array(g, dtype=np.int32))
        # re-establish closure: sift Schreier generators until all pass
        residue = self._next_schreier_residue()
        while residue is not None:
            self._insert(*residue)
            residue = self._next_schreier_residue()

    def _is_ident(self, g: np.ndarray) -> bool:
        return g.tobytes() == self._ident_bytes

    # level i uses every generator entering at levels >= i: those are exactly
    # the known elements fixing base[:i] pointwise
    def _gens_at(self, i: int) -> list[int]:
        out = []
        for lvl in range(i, len(self.base)):
            out.extend(self._gens[lvl])
        return out

    def _sift(self, g: np.ndarray, start: int):
        """Reduce g through levels >= start; return (residue, stuck level)."""
        for i in range(start, len(self.base)):
            pt = int(g[self.base[i]])
            if pt == self.base[i]:
                continue
            entry = self._orbit[i].get(pt)
            if entry is None:
                return g, i
            g = entry[1][g]  # g * t^{-1} fixes base[i]
        return g, len(self.base)

    def _extend_orbit(self, i: int):
        """Grow orbit/transversal at level i; existing entries are kept valid."""
        gens = [self._arr[k] for k in self._gens_at(i)]
        tr = self._orbit[i]
        queue = list(tr)
        while queue:
            x = queue.pop()
            tx = tr[x][0]
            for g in gens:
                y = int(g[x])
                if y not in tr:
                    t = g[tx]  # apply tx, then g
                    tinv = np.empty(self.degree, dtype=np.int32)
                    tinv[t] = self._ident
                    tr[y] = (t, tinv)
                    queue.append(y)

    def _insert(self, start: int, g: np.ndarray):
        h, lvl = self._sift(g, start)
        if self._is_ident(h):
            return
        if lvl == len(self.base):
            moved = int(np.nonzero(h != self._ident)[0][0])
            self.base.append(moved)
            self._gens.append([])
            self._orbit.append({moved: (self._ident, self._ident)})
            self._checked.append(set())
        serial = len(self._arr)
        self._arr.append(h)
        self._gens[lvl].append(serial)
        for i in range(lvl + 1):
            self._extend_orbit(i)

    def _next_schreier_residue(self):
        for i in range(len(self.base) - 1, -1, -1):
            serials = self._gens_at(i)
            tr = self._orbit[i]
            checked = self._checked[i]
            for pt in list(tr):
                tx = tr[pt][0]
                for k in serials:
                    key = (pt, k)
                    if key in checked:
                        continue
                    checked.add(key)
                    g = self._arr[k]
                    y = int(g[pt])
                    tyinv = tr[y][1]
                    # Schreier generator tx * g * ty^{-1} fixes base[i]
                    sg = tyinv[g[tx]]
                    if self._is_ident(sg):
                        continue
                    h, lvl = self._sift(sg, i + 1)
                    if not self._is_ident(h):
                        return lvl, h
        return None

    def order(self) -> int:
        n = 1
        for tr in self._orbit:
            n *= len(tr)
        return n

    def fundamental_orbit_lengths(self) -> tuple[int, ...]:
        return tuple(len(tr) for tr in self._orbit)

    def contains(self, g) -> bool:
        arr = np.array(g, dtype=np.int32)
        h, _ = self._sift(arr, 0)
        return bool(np.array_equal(h, self._ident))
