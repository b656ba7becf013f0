"""Checks of sweep records against computations of the benchmark's own.

Nothing here imports planeschemes.  The projective line, PGL(2,p), the set
partitions of the slopes and the colour refinement are computed afresh, so
a fault in the library cannot vouch for itself.

A record is a dict in the report's JSON form (``p``, ``partition_rgs``,
``rank``, ``valencies``, ``lambda``, ``primitive``, ``pseudocyclic``,
``schurian``, ``aut_order``, ``verdict``, ``witness``, ``error``).  The
checks are lettered as in the README:

  (a) one record per partition given, and Bell(p+1) of them for a sweep,
      Bell(p+1) counted by the Bell triangle;
  (b) no error and no Unknown or UnclassifiableSchurian verdict;
  (c) schurity decided by one of two sound tests;
  (d) p^2 (p-1) |G_P| divides aut_order, and for schurian records so does
      n lcm(valencies);
  (e) primitive == (1 not in Lambda), pseudocyclic == (|Lambda| == 1),
      plus rank, valencies and Lambda read off the partition;
  (f) partitions in one PGL(2,p) orbit share verdict, aut_order, rank and
      flags;
  (g) the report digest equals the reference digest, where one is given.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
NON_SCHURIAN = "NonSchurian"
BAD_VERDICTS = ("Unknown", "UnclassifiableSchurian")


def canonical_rgs(block_of) -> str:
    """Restricted-growth string of a labelling: blocks renumbered by first use."""
    renum: dict = {}
    return "".join(ALPHABET[renum.setdefault(b, len(renum))] for b in block_of)


def blocks_of(rgs: str) -> list[list[int]]:
    out: dict[str, list[int]] = {}
    for label, ch in enumerate(rgs):
        out.setdefault(ch, []).append(label)
    return list(out.values())


def set_partitions(m: int) -> list[str]:
    """Every set partition of m labels, built by placing one label at a time."""
    parts = [[0]]
    for _ in range(1, m):
        parts = [q + [b] for q in parts for b in range(max(q) + 2)]
    return sorted(canonical_rgs(q) for q in parts)


def bell_number(m: int) -> int:
    """Bell(m) by the Bell triangle, independently of set_partitions."""
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def moebius_group(p: int) -> list[tuple[int, ...]]:
    """PGL(2,p) as permutations of the slopes 0..p-1 and p (vertical).

    z -> (a z + b) / (c z + d) for every invertible (a b; c d); the
    direction (dx, dy) of slope dy/dx goes to a direction whose slope is
    such a map of the old one, and every map arises.
    """
    def image(a, b, c, d, z):
        num, den = (a, c) if z == p else ((a * z + b) % p, (c * z + d) % p)
        return p if den == 0 else num * pow(den, -1, p) % p

    perms = {
        tuple(image(a, b, c, d, z) for z in range(p + 1))
        for a in range(p) for b in range(p) for c in range(p) for d in range(p)
        if (a * d - b * c) % p
    }
    if len(perms) != p**3 - p:
        raise RuntimeError(f"PGL(2,{p}) came out with {len(perms)} elements")
    return sorted(perms)


def _label_orbits(perms, m: int) -> list[int]:
    """Orbit index of each of m labels under the given permutations."""
    root = list(range(m))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for g in perms:
        for x in range(m):
            a, b = find(x), find(g[x])
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(x) for x in range(m)]


def slope_matrix(p: int) -> np.ndarray:
    """(p^2, p^2) slope labels of AG(2,p): -1 on the diagonal, p for vertical.

    Point (x, y) has index x p + y; the pair (u, v) gets the slope of v - u.
    """
    x, y = np.divmod(np.arange(p * p), p)
    dx = (x[None, :] - x[:, None]) % p
    dy = (y[None, :] - y[:, None]) % p
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    out = np.where(dx != 0, dy * inv[dx] % p, p)
    out[(dx == 0) & (dy == 0)] = -1
    return out


def refinement_trace(layers: np.ndarray, col: np.ndarray) -> tuple[bytes, ...]:
    """Canonical history of 1-dimensional colour refinement from `col`.

    layers[s] is the 0/1 matrix of colour s.  Each round a point's
    signature is its cell and its count of s-neighbours in every cell; the
    sorted table of signatures is recorded and cells are renumbered by rank
    in it.  Isomorphic starting colourings give equal histories.
    """
    n = len(col)
    history = []
    k = int(col.max()) + 1
    while True:
        counts = layers @ np.eye(k, dtype=layers.dtype)[col]      # (r, n, k)
        sig = np.column_stack([col, counts.transpose(1, 0, 2).reshape(n, -1)])
        order = np.lexsort(sig.T[::-1])
        table = sig[order]
        step = np.any(table[1:] != table[:-1], axis=1)
        rank = np.concatenate([[0], np.cumsum(step)])
        history.append(table.tobytes())
        if rank[-1] + 1 == k:
            return tuple(history)
        col = np.empty(n, dtype=np.int64)
        col[order] = rank
        k = int(rank[-1]) + 1


class PrimeTables:
    """Per-prime data the checks share, and memoised per-partition tests."""

    def __init__(self, p: int):
        self.p = p
        self.group = moebius_group(p)
        self._slopes = slope_matrix(p)
        self._schurian_test: dict[str, bool | None] = {}
        self._stabiliser_order: dict[str, int] = {}

    @cached_property
    def orbit_of(self) -> dict[str, str]:
        """Least RGS of the PGL(2,p) orbit of each partition of the slopes."""
        out: dict[str, str] = {}
        for rgs in set_partitions(self.p + 1):
            if rgs in out:
                continue
            orbit = {canonical_rgs(rgs[g.index(x)] for x in range(self.p + 1))
                     for g in self.group}
            rep = min(orbit)
            for q in orbit:
                out[q] = rep
        return out

    def stabiliser(self, rgs: str) -> list[tuple[int, ...]]:
        """G_P: the elements mapping every block of the partition to itself."""
        return [g for g in self.group
                if all(rgs[g[x]] == rgs[x] for x in range(self.p + 1))]

    def stabiliser_order(self, rgs: str) -> int:
        if rgs not in self._stabiliser_order:
            self._stabiliser_order[rgs] = len(self.stabiliser(rgs))
        return self._stabiliser_order[rgs]

    def fused_layers(self, rgs: str) -> np.ndarray:
        """0/1 matrices of the fusion's colours: diagonal first, then blocks."""
        block = np.array([int(ALPHABET.index(ch)) + 1 for ch in rgs] + [0])
        m = block[self._slopes]           # slope -1 picks the appended 0
        return np.stack([(m == s) for s in range(m.max() + 1)]).astype(np.float64)

    def schurity(self, rgs: str) -> bool | None:
        """True, False, or None when neither sound test decides."""
        if rgs not in self._schurian_test:
            self._schurian_test[rgs] = self._decide(rgs)
        return self._schurian_test[rgs]

    def _decide(self, rgs: str) -> bool | None:
        # Test 1: the partition is the orbit partition of G_P, so the fusion
        # is the orbital scheme of translations by the lift of G_P.
        orbits = _label_orbits(self.stabiliser(rgs), self.p + 1)
        if canonical_rgs(orbits) == rgs:
            return True
        # Test 2: an automorphism of a schurian fusion maps (0, b) to (0, c)
        # whenever the two pairs share a colour, so refinement histories
        # after individualising them must agree.
        layers = self.fused_layers(rgs)
        colour_of = np.argmax(layers[:, 0, :], axis=0)
        seen: dict[int, tuple[bytes, ...]] = {}
        for b in range(1, self.p * self.p):
            start = np.zeros(self.p * self.p, dtype=np.int64)
            start[0], start[b] = 1, 2
            trace = refinement_trace(layers, start)
            first = seen.setdefault(int(colour_of[b]), trace)
            if first != trace:
                return False
        return None


def check_record(tables: PrimeTables, rec: dict) -> list[str]:
    """The problems (b) to (e) find in one record; empty when it passes."""
    p, rgs = tables.p, rec.get("partition_rgs", "")
    if rec.get("p") != p or len(rgs) != p + 1 or canonical_rgs(rgs) != rgs:
        return [f"(a) record {rgs!r} is not a partition of the {p + 1} slopes"]
    problems = []
    if rec["error"] is not None or rec["verdict"] in BAD_VERDICTS:
        problems.append(f"(b) {rgs}: verdict {rec['verdict']}, error {rec['error']!r}")
    sizes = [len(b) for b in blocks_of(rgs)]
    lam = sorted(set(sizes))
    if rec["rank"] != len(sizes) + 1:
        problems.append(f"(e) {rgs}: rank {rec['rank']}")
    if list(rec["valencies"]) != sorted(s * (p - 1) for s in sizes):
        problems.append(f"(e) {rgs}: valencies {rec['valencies']}")
    if list(rec["lambda"]) != lam:
        problems.append(f"(e) {rgs}: lambda {rec['lambda']}")
    if rec["primitive"] is not (1 not in lam):
        problems.append(f"(e) {rgs}: primitive {rec['primitive']}")
    if rec["pseudocyclic"] is not (len(lam) == 1):
        problems.append(f"(e) {rgs}: pseudocyclic {rec['pseudocyclic']}")

    want = tables.schurity(rgs)
    said = rec["schurian"] if rec["schurian"] in (True, False) else None
    if want is None:
        problems.append(f"(c) {rgs}: neither test decides schurity")
    elif said is not want or (rec["verdict"] == NON_SCHURIAN) is want:
        problems.append(f"(c) {rgs}: schurian should be {want}, record says "
                        f"{rec['schurian']} / {rec['verdict']}")

    order = rec["aut_order"]
    if not isinstance(order, int) or order < 1:
        problems.append(f"(d) {rgs}: aut_order {order!r}")
    else:
        lower = p * p * (p - 1) * tables.stabiliser_order(rgs)
        if order % lower:
            problems.append(f"(d) {rgs}: {lower} does not divide aut_order {order}")
        lcm = math.lcm(*(s * (p - 1) for s in sizes))
        if want and order % (p * p * lcm):
            problems.append(f"(d) {rgs}: n*lcm(valencies) does not divide {order}")
    return problems


def check_pass(tables: PrimeTables, given: list[str], records: list[dict],
               digest: str, reference: str | None = None,
               full_sweep: bool = False) -> tuple[set[str], list[str]]:
    """Run every check on the records of one pass.

    Returns the partitions counted as failed and the problems found.  A
    partition given but missing, repeated or out of place fails (a); a
    digest differing from the reference fails the whole pass (g).
    """
    problems: list[str] = []
    failed: set[str] = set()
    got = [r.get("partition_rgs") for r in records]
    if sorted(got) != sorted(given) or len(set(given)) != len(given):
        missing = set(given).symmetric_difference(got)
        missing |= {g for g in given if got.count(g) != 1}
        problems.append(f"(a) {len(records)} records for {len(given)} partitions; "
                        f"{len(missing)} missing or repeated")
        failed |= missing & set(given)
    if full_sweep:
        bell = bell_number(tables.p + 1)
        if len(records) != bell:
            problems.append(f"(a) full sweep has {len(records)} records, "
                            f"Bell({tables.p + 1}) = {bell}")
            failed |= set(given)
    by_orbit: dict[str, list[dict]] = {}
    for rec in records:
        found = check_record(tables, rec)
        if found:
            problems.extend(found)
            failed.add(rec.get("partition_rgs"))
            continue
        by_orbit.setdefault(tables.orbit_of[rec["partition_rgs"]], []).append(rec)
    for rep, members in sorted(by_orbit.items()):
        shared = {(m["verdict"], m["aut_order"], m["rank"], m["primitive"],
                   m["pseudocyclic"], m["schurian"]) for m in members}
        if len(shared) > 1:
            problems.append(f"(f) orbit of {rep}: members disagree: {sorted(map(str, shared))}")
            failed |= {m["partition_rgs"] for m in members}
    if reference is not None and digest != reference:
        problems.append(f"(g) report digest {digest[:16]} != reference {reference[:16]}")
        failed |= set(given)
    return failed, problems
