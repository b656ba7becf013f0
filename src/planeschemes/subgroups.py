"""Subgroup families of PGL(2,p) in its action on the projective line.

Named families (cyclic, dihedral, C_p : C_d, alt(4), sym(4), alt(5)) are
found deterministically, as the first hit in the lexicographic order of
canonical matrices.  D_2d, alt(4), sym(4) and alt(5) are the triangle groups
Δ(d,2,2), Δ(2,3,3), Δ(2,3,4) and Δ(2,3,5), so one presentation search
finds all four: the first pair of elements with the three orders of the
presentation that generates a group of its order.  C_d is one element, and
C_p : C_d the shift z -> z + 1 with a diagonal element.  For small p the
full subgroup lattice, the tests' reference, is enumerated by closure over
generator pairs; every subgroup of PGL(2,p) is 2-generated, so pair
closures reach all of them.

A subgroup is held as its PermGroup on the p+1 slopes, so p is its degree
less one; the action is faithful, so each permutation is one element.
Every reader of the action goes through `pgl_table(p)`, one frozen table of
the elements, their slope permutations and orders, built once per prime.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .affine import SlopePartition, partition_from_group
from .errors import UnsupportedPrime
from .permgroup import (
    Perm,
    PermGroup,
    compose,
    group_closure,
    perm_order,
)
from .projline import (
    PglElement,
    check_prime,
    pgl_canonical,
    pgl_elements,
    point_permutation,
)
from .scheme import frozen_copy

_LATTICE_MAX_PRIME = 7


@dataclass(frozen=True)
class SubgroupSpec:
    """One of the subgroup families named in the orbit-size table.

    kind: "cyclic" (C_d), "dihedral" (D_2d), "frobenius" (C_p : C_d),
    "alt4", "sym4", "alt5".  d is ignored for the three exceptional kinds.
    """

    kind: str
    d: int = 0

    _KINDS = ("cyclic", "dihedral", "frobenius", "alt4", "sym4", "alt5")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown subgroup kind {self.kind!r}")
        if self.kind == "cyclic" and self.d < 1:
            raise ValueError("cyclic requires d >= 1")
        if self.kind == "dihedral" and self.d < 2:
            raise ValueError("dihedral requires d >= 2")
        if self.kind == "frobenius" and self.d < 1:
            raise ValueError("frobenius requires d >= 1")

    def describe(self) -> str:
        return {
            "cyclic": f"C{self.d}",
            "dihedral": f"D{2 * self.d}",
            "frobenius": f"C_p:C{self.d}",
            "alt4": "Alt(4)",
            "sym4": "Sym(4)",
            "alt5": "Alt(5)",
        }[self.kind]


def named_specs(p: int) -> list[SubgroupSpec]:
    """Every named family of the orbit-size table at p, in a fixed order."""
    specs = [SubgroupSpec("cyclic", d) for d in range(1, p + 2)]
    specs += [SubgroupSpec("dihedral", d) for d in range(2, p + 2)]
    specs += [SubgroupSpec("frobenius", d) for d in range(1, p) if (p - 1) % d == 0]
    return specs + [SubgroupSpec(k) for k in EXCEPTIONAL_KINDS]


def parse_spec(text: str) -> SubgroupSpec:
    """CLI spelling: Cyclic:4, Dihedral:3, FrobeniusPD:2, A4, S4, A5."""
    t = text.strip()
    low = t.lower()
    if low in ("a4", "alt4"):
        return SubgroupSpec("alt4")
    if low in ("s4", "sym4"):
        return SubgroupSpec("sym4")
    if low in ("a5", "alt5"):
        return SubgroupSpec("alt5")
    if ":" in t:
        name, _, arg = t.partition(":")
        d = int(arg)
        key = {"cyclic": "cyclic", "dihedral": "dihedral",
               "frobeniuspd": "frobenius"}.get(name.lower())
        if key:
            return SubgroupSpec(key, d)
    raise ValueError(f"cannot parse subgroup spec {text!r}")


@dataclass(frozen=True, eq=False)
class PglTable:
    """PGL(2,p) on the p+1 slopes; row i is the i-th element in canonical order."""

    elements: tuple[PglElement, ...]
    perms: tuple[Perm, ...]         # the Moebius slope permutations
    array: np.ndarray               # perms as one frozen (p^3 - p, p + 1) array
    orders: tuple[int, ...]
    _rows: MappingProxyType

    def row(self, perm) -> int:
        """The row whose slope permutation is perm; ValueError outside PGL(2,p)."""
        row = self._rows.get(tuple(perm))
        if row is None:
            raise ValueError(f"{tuple(perm)} is no element of PGL(2,{self.elements[0].p})")
        return row


@lru_cache(maxsize=None)
def pgl_table(p: int) -> PglTable:
    """The PGL(2,p) table, built once per prime from `pgl_elements` and `point_permutation`."""
    els = pgl_elements(p)
    perms = tuple(map(point_permutation, els))
    array = frozen_copy(np.array(perms, dtype=np.intp))
    return PglTable(els, perms, array, tuple(map(perm_order, perms)),
                    MappingProxyType({q: i for i, q in enumerate(perms)}))


def generator_matrices(group: PermGroup) -> tuple[PglElement, ...]:
    """The canonical matrices of the group's generators, in their order."""
    t = pgl_table(group.degree - 1)
    return tuple(t.elements[t.row(q)] for q in group.generators)


def witness_generators(group: PermGroup) -> tuple[PglElement, ...]:
    """Generators that depend on the subgroup only, not on how it was found.

    The first four elements in canonical order; while they generate a
    proper subgroup, the first canonical element outside it is appended.
    """
    t = pgl_table(group.degree - 1)
    own = sorted(map(t.row, group.elements))
    gens = own[:4]
    while True:
        closed = set(group_closure([t.perms[i] for i in gens], group.degree).elements)
        if len(closed) == len(own):
            return tuple(t.elements[i] for i in gens)
        gens.append(next(i for i in own if t.perms[i] not in closed))


def element_order_profile(group: PermGroup) -> dict[int, int]:
    """Multiset of element orders; identifies A4/S4/A5 among same-order groups."""
    return dict(Counter(perm_order(g) for g in group.elements))


#: kind -> (order of the product of the generating involution and
#: 3-element, group order, element order profile)
EXCEPTIONAL_KINDS = {
    "alt4": (3, 12, {1: 1, 2: 3, 3: 8}),
    "sym4": (4, 24, {1: 1, 2: 9, 3: 8, 4: 6}),
    "alt5": (5, 60, {1: 1, 2: 15, 3: 20, 5: 24}),
}


def is_exceptional_group(group: PermGroup, kind: str) -> bool:
    """Whether the group has the order and element order profile of `kind`."""
    _, size, profile = EXCEPTIONAL_KINDS[kind]
    return group.order() == size and element_order_profile(group) == profile


def _presentation(p: int, a: int, b: int, c: int, size: int) -> PermGroup | None:
    """<x, y> for the first pair, x of order a and y of order b in canonical
    order of x then y, with x·y of order c and |<x, y>| = size; else None.

    Such a pair satisfies the relations of the triangle group
    Δ(a,b,c) = <x, y | x^a = y^b = (xy)^c = 1>, so <x, y> is a quotient of
    it (von Dyck) and is Δ(a,b,c) itself when `size` is its order:
    D_2d = Δ(d,2,2), and alt(4), sym(4), alt(5) = Δ(2,3,c) for c = 3, 4, 5.
    """
    t = pgl_table(p)
    ys = [qy for qy, o in zip(t.perms, t.orders) if o == b]
    for qx, o in zip(t.perms, t.orders):
        if o != a:
            continue
        for qy in ys:
            if perm_order(compose(qx, qy)) == c:
                group = group_closure([qx, qy], p + 1)
                if group.order() == size:
                    return group
    return None


def find_subgroup(p: int, spec: SubgroupSpec) -> PermGroup | None:
    """Deterministic representative of the requested family, or None if absent.

    The dihedral and exceptional kinds come from `_presentation`.  C_d is
    the first element of order d; C_p : C_d is the shift z -> z + 1 with,
    for d > 1, the first diagonal element z -> az of order d.
    """
    check_prime(p)
    if spec.kind == "dihedral":
        return _presentation(p, spec.d, 2, 2, 2 * spec.d)
    if spec.kind in EXCEPTIONAL_KINDS:
        c, size, _ = EXCEPTIONAL_KINDS[spec.kind]
        return _presentation(p, 2, 3, c, size)
    t = pgl_table(p)
    diagonal = spec.kind == "frobenius"
    g = next((g for g, o in zip(t.elements, t.orders)
              if o == spec.d and not (diagonal and (g.b or g.c))), None)
    if g is None:
        return None
    gens = (g,)
    if diagonal:
        shift = pgl_canonical(1, 1, 0, 1, p)
        gens = (shift,) if spec.d == 1 else (shift, g)
    return group_closure(map(point_permutation, gens), p + 1)


def lemma_orbit_size_bound(spec: SubgroupSpec, p: int) -> set[int] | None:
    """The stated orbit-size set for the family, None for the exceptional kinds.

    A dihedral group of order 2p is also C_p : C_2, so it is only required
    to satisfy the bound of the Frobenius family; the returned set is the
    union of the bounds of every family containing the group.
    """
    if spec.kind == "cyclic":
        return {1, spec.d}
    if spec.kind == "dihedral":
        out = {2, spec.d, 2 * spec.d}
        if spec.d == p:
            out |= {1, p}
        return out
    if spec.kind == "frobenius":
        return {1, p}
    return None


# ---------------------------------------------------------------------------
# full subgroup lattice for small p: no library path uses it, the tests do


def _mult_table(p: int) -> np.ndarray:
    """[i, j]: the table row of g_i g_j, which maps z to g_i(g_j(z))."""
    t = pgl_table(p)
    return np.array([[t.row(q) for q in products] for products in t.array[:, t.array].tolist()])


@lru_cache(maxsize=None)
def subgroup_lattice(p: int) -> tuple[frozenset[int], ...]:
    """Every subgroup of PGL(2,p), as frozensets of `pgl_table` rows.

    Enumerated by closing all generator pairs; p <= 7 only.
    """
    check_prime(p)
    if p > _LATTICE_MAX_PRIME:
        raise UnsupportedPrime(
            f"subgroup lattice enumeration is limited to p <= {_LATTICE_MAX_PRIME}"
        )
    table = _mult_table(p)
    ident = pgl_table(p).row(range(p + 1))

    # cyclic subgroups first, deduplicated
    cyclics: dict[frozenset[int], int] = {}
    for i in range(len(table)):
        c = _closure_set(table, ident, (i,))
        cyclics.setdefault(c, i)
    subs = set(cyclics)
    subs.add(frozenset([ident]))
    # all pair closures
    reps = sorted(cyclics.values())
    for a_pos, i in enumerate(reps):
        for j in reps[a_pos:]:
            subs.add(_closure_set(table, ident, (i, j)))
    return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))


def _closure_set(table: np.ndarray, ident: int, gens: tuple[int, ...]) -> frozenset[int]:
    seen = {ident}
    frontier = [ident]
    gen_list = sorted(set(gens))
    while frontier:
        prods = np.bincount(table[np.ix_(np.array(frontier, dtype=np.int32),
                                         np.array(gen_list, dtype=np.int32))].ravel())
        nxt = [int(x) for x in np.flatnonzero(prods) if int(x) not in seen]
        seen.update(nxt)
        frontier = nxt
    return frozenset(seen)


def lattice_subgroup(p: int, ids: frozenset[int]) -> PermGroup:
    """A lattice entry as a group on the slopes (generators = all elements)."""
    gens = tuple(pgl_table(p).perms[i] for i in sorted(ids))
    return PermGroup(p + 1, gens, tuple(sorted(gens)))


def exceptional_subgroups(p: int, kind: str) -> list[PermGroup]:
    """All alt(4) (kind="alt4") or alt(5) subgroups of PGL(2,p).

    Each kind forms one conjugacy class of PGL(2,p) (Dickson), so these are
    the distinct conjugates of one representative.
    """
    rep = find_subgroup(p, SubgroupSpec(kind))
    return [] if rep is None else list(conjugates(rep))


def conjugates(rep: PermGroup):
    """The distinct conjugates g rep g^-1, in the canonical order of g.

    On the slopes g x g^-1 is z -> g(x(g^-1(z))): each conjugate's generators
    and elements are those of rep, conjugated as permutations.
    """
    k = len(rep.generators)
    stack = np.array(rep.generators + rep.elements)
    seen: set[frozenset] = set()
    for q in pgl_table(rep.degree - 1).array:
        conj = list(map(tuple, q[stack[:, np.argsort(q)]].tolist()))
        key = frozenset(conj[k:])
        if key not in seen:
            seen.add(key)
            yield PermGroup(rep.degree, tuple(conj[:k]), tuple(sorted(key)))


def _slope_images(p: int, P: SlopePartition) -> np.ndarray:
    """Row i: P.rgs[pi_g] for the i-th PGL(2,p) element g in canonical order."""
    if P.n_labels != p + 1:
        raise ValueError(f"partition has {P.n_labels} labels, want {p + 1}")
    return np.asarray(P.rgs)[pgl_table(p).array]


def match_pgl_subgroup(p: int, P: SlopePartition) -> PermGroup | None:
    """K_P, the elements of PGL(2,p) keeping each block of P, or None.

    K_P is returned when its slope orbits are the blocks of P.  A subgroup
    whose orbits are the blocks lies in K_P, whose orbits lie within the
    blocks, so K_P realises P whenever any subgroup does.
    """
    perms = pgl_table(p).perms
    keep = tuple(perms[i] for i in np.flatnonzero((_slope_images(p, P) == P.rgs).all(axis=1)))
    K = PermGroup(p + 1, keep, tuple(sorted(keep)))
    return K if partition_from_group(K) == P else None


def match_exceptional_subgroup(p: int, P: SlopePartition) -> tuple[str, PermGroup] | None:
    """(kind, group) for an alt(4) or alt(5) whose slope orbits are the blocks of P, or None.

    None for one block.  Such a subgroup lies in K_P, which is then alt(4),
    sym(4) or alt(5) (Dickson: PSL(2,p) and PGL(2,p) are transitive, and an
    alt(5) with two orbits has one of 20, 30 or 60 slopes, unlike alt(4));
    it is the subgroup generated by the elements of order 3 of K_P.
    """
    if P.num_blocks == 1:
        return None
    K = match_pgl_subgroup(p, P)
    if K is None or K.order() % 12:
        return None
    A = group_closure([q for q in K.elements if perm_order(q) == 3], p + 1)
    for kind in ("alt4", "alt5"):
        if is_exceptional_group(A, kind) and partition_from_group(A) == P:
            return kind, A
    return None


def pgl_orbit(p: int, P: SlopePartition) -> dict[tuple[int, ...], int]:
    """Every member of the PGL(2,p) orbit of P, as rgs, with a `pgl_table` row mapping P onto it.

    The member g gives is the canonical form of P.rgs[pi_g], computed for the
    whole group at once; each member comes with the first row that gives it,
    and the members come in increasing order.  Each canonical row packs into
    a key of one byte per label (labels < p + 1 < 256 at every prime whose
    group table fits in memory), so byte order on the keys is the
    lexicographic row order.
    """
    images = _slope_images(p, P)
    first = (images[:, :, None] == np.arange(P.num_blocks)).argmax(axis=1)
    renumber = np.argsort(np.argsort(first, axis=1), axis=1)  # blocks by first slope
    canon = np.take_along_axis(renumber, images, axis=1)
    keys = np.ascontiguousarray(canon, dtype=np.uint8).view(f"S{p + 1}").ravel()
    _, index = np.unique(keys, return_index=True)
    return dict(zip(map(tuple, canon[index].tolist()), index.tolist()))
