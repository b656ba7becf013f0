"""Association schemes as verified color matrices with intersection tensors.

A scheme on n points is stored as an n x n matrix of colors 0..r-1 with color
0 on the diagonal and nowhere else, together with the transposition map
(star) and the full intersection tensor c[r,s,t] = |alpha r  intersect
beta s*| for (alpha,beta) of color t.  :func:`verify_scheme` proves from the
matrix that every intersection number is independent of the chosen pair;
:func:`merge` proves it for a fusion of a verified scheme by block sums.
The slope fusions of AG(2,p) take their tensor in closed form instead
(`affine.amorphic_tensor`), which the tests compare with `merge`'s.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .errors import (
    InconsistentIntersection,
    InvariantViolated,
    NotAlgebraic,
    NotStarClosed,
)
from .permgroup import PermGroup, orbits

_MAGIC = b"AFSC"
_VERSION = 1
_HEADER_SIZE = 13       # magic, version u8, n u32le, r u32le


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """A read-only view of an immutable copy of a, which nothing can make writable."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


@dataclass(frozen=True, eq=False)
class Scheme:
    """A verified association scheme.  The one immutability rule: `matrix` and `tensor`
    become `frozen_copy`s of the given arrays, which no holder can write into."""

    matrix: np.ndarray          # (n, n) int16 color matrix
    star: tuple[int, ...]       # color -> transposed color
    tensor: np.ndarray          # (r, r, r) int64, tensor[r, s, t] = c_rs^t

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_copy(self.matrix))
        object.__setattr__(self, "tensor", frozen_copy(self.tensor))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return len(self.star)

    @cached_property
    def valencies(self) -> tuple[int, ...]:
        """Per-color valency n_s = c(s, s*, 0); entry 0 is the diagonal's 1."""
        return tuple(
            int(self.tensor[s, self.star[s], 0]) for s in range(self.rank)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Scheme) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(self.matrix.tobytes())

    def __repr__(self) -> str:
        return f"Scheme(n={self.n}, rank={self.rank})"


def _one_hot(m: np.ndarray, r: int) -> np.ndarray:
    """(r, n, n) float64 stack whose layer s is the 0/1 matrix of color s."""
    return (m == np.arange(r, dtype=m.dtype)[:, None, None]).astype(np.float64)


def _check_color_matrix(m: np.ndarray) -> np.ndarray:
    """The number of pairs of each color, once m is a valid color matrix."""
    n = m.shape[0]
    if m.ndim != 2 or m.shape[1] != n:
        raise ValueError("color matrix must be square")
    if n == 0:
        raise ValueError("empty point set")
    sizes = np.bincount(m.ravel()) if m.min() >= 0 else None
    if sizes is None or not sizes.all():
        raise ValueError("colors must be exactly 0..r-1, all occurring")
    if np.any(np.diag(m) != 0):
        raise ValueError("diagonal must have color 0")
    if sizes[0] != n:
        raise ValueError("color 0 must not occur off the diagonal")
    return sizes


def _compute_star(m: np.ndarray, r: int) -> tuple[int, ...]:
    # met[s, t]: the number of pairs of color s whose transpose has color t
    met = np.bincount((m.astype(np.int64) * r + m.T).ravel(), minlength=r * r).reshape(r, r)
    star = []
    for s in range(r):
        vals = np.flatnonzero(met[s])
        if len(vals) != 1:
            raise NotStarClosed(
                f"transpose of color {s} meets colors {vals.tolist()}"
            )
        star.append(int(vals[0]))
    for s, t in enumerate(star):
        if star[t] != s:
            raise NotStarClosed(f"star map is not an involution at color {s}")
    return tuple(star)


def verify_scheme(matrix) -> Scheme:
    """Check the scheme axioms on a color matrix and return the Scheme.

    For every triple (r,s,t) this verifies that |{gamma : m[a,g]=r,
    m[g,b]=s}| is the same over all (a,b) with m[a,b]=t, and stores the
    constant.  Raises ValueError for entries that are not int16 integers or
    not colors 0..r-1 laid out as a scheme's, and NotStarClosed or
    InconsistentIntersection (with a witness pair of pairs) otherwise.  The
    Scheme holds a frozen copy of `matrix`, which stays writable and its own.
    """
    given = np.asarray(matrix)
    with np.errstate(invalid="ignore"):          # NaN and out-of-range entries fail below
        m = np.ascontiguousarray(given, dtype=np.int16)
    if given.dtype != np.int16 and not np.array_equal(m, given):
        raise ValueError("color matrix entries must be integers in the int16 range")
    sizes = _check_color_matrix(m)
    r = len(sizes)
    n = m.shape[0]
    star = _compute_star(m, r)

    order = np.argsort(m.ravel(), kind="stable")    # pairs grouped by color
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = bounds[:-1]
    stack = _one_hot(m, r)

    tensor = np.zeros((r, r, r), dtype=np.int64)
    for rr in range(r):
        prods = stack[rr] @ stack  # (r, n, n); prods[s] = A_rr @ A_s
        # 0/1 products of at most n terms: exact integers in float64
        counts = prods.reshape(r, n * n)[:, order]
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
    return Scheme(m, star, tensor)


def merge(X: Scheme, color_map) -> Scheme:
    """The fusion of X along color_map (color -> merged color), proved from X's tensor.

    A_I A_J = sum_k s[I, J, k] A_k, where s[I, J, k] sums c_ij^k over i in I
    and j in J, so the merge is a scheme iff s is constant on each block K
    (Bannai-Muzychuk).  Gives, or raises, what `verify_scheme` does on
    color_map[X.matrix]; ValueError unless the map sends color 0 alone to 0.
    """
    cmap = np.asarray(color_map)
    sizes = np.bincount(cmap)                           # ValueError for a negative color
    if cmap.shape != (X.rank,) or cmap[0] != 0 or sizes[0] != 1 or not sizes.all():
        raise ValueError(f"{cmap.tolist()} is no color map of a rank-{X.rank} scheme")
    blocks = (cmap[:, None] == np.arange(len(sizes))).astype(np.int64)   # one-hot
    first = blocks.argmax(axis=0)                       # the least color of each block
    star_of = cmap[list(X.star)]                        # the merged color of each transpose
    split = cmap[star_of != star_of[first][cmap]]
    if len(split):
        raise NotStarClosed(f"transpose of merged color {split[0]} meets two merged colors")
    # sums[I, J, k] = (B^T C_k B)[I, J] for the one-hot B and the layers C_k = c[:, :, k]
    sums = (blocks.T @ X.tensor.transpose(2, 0, 1) @ blocks).transpose(1, 2, 0)
    tensor = np.ascontiguousarray(sums[:, :, first])
    spread = sums != tensor[:, :, cmap]
    if spread.any():
        I, J, k = np.argwhere(spread)[0].tolist()
        pairs = (tuple(np.argwhere(X.matrix == c)[0].tolist()) for c in (first[cmap[k]], k))
        raise InconsistentIntersection(I, J, int(cmap[k]), *pairs)
    return Scheme(cmap.astype(np.int16)[X.matrix], tuple(star_of[first].tolist()), tensor)


def trivial_scheme(n: int) -> Scheme:
    """The rank-2 scheme of degree n (rank 1 when n = 1)."""
    m = np.ones((n, n), dtype=np.int16)
    np.fill_diagonal(m, 0)
    return verify_scheme(m)


# ---------------------------------------------------------------------------
# per-relation statistics


@dataclass(frozen=True)
class RelationStats:
    """Valency and indistinguishing number per color (index 0 = diagonal)."""

    valencies: tuple[int, ...]
    indistinguishing: tuple[int, ...]   # c(s) = sum_r c(r, r*, s)


def relation_stats(X: Scheme) -> RelationStats:
    star = np.array(X.star)
    diag_slices = X.tensor[np.arange(X.rank), star, :]  # (r, t): c(r, r*, t)
    cs = diag_slices.sum(axis=0)
    return RelationStats(X.valencies, tuple(int(x) for x in cs))


def is_pseudocyclic(X: Scheme) -> bool:
    """One constant k with n_s = k = c(s) + 1 across all nonzero colors."""
    if X.rank < 2:
        return True
    stats = relation_stats(X)
    k = stats.valencies[1]
    return all(
        stats.valencies[s] == k and stats.indistinguishing[s] == k - 1
        for s in range(1, X.rank)
    )


# ---------------------------------------------------------------------------
# parabolics, quotients, restrictions


@dataclass(frozen=True)
class ParabolicSet:
    """A star-closed color subset whose union is an equivalence relation."""

    colors: frozenset[int]
    num_classes: int
    class_size: int

    def is_trivial(self, rank: int) -> bool:
        return len(self.colors) == 1 or len(self.colors) == rank


def _closures(X: Scheme, rows: np.ndarray) -> np.ndarray:
    """Each row of a (k, rank) color mask grown to the least composition-closed set holding it.

    A set holding colors a and b holds each t with c(a, b, t) > 0: one
    boolean product over the tensor's support adds them all, until none is new.
    """
    meets = (X.tensor > 0).reshape(X.rank ** 2, X.rank)     # row a * rank + b: c(a, b, t) > 0
    while True:
        grown = rows | (rows[:, :, None] & rows[:, None, :]).reshape(len(rows), len(meets)) @ meets
        if np.count_nonzero(grown) == np.count_nonzero(rows):     # grown holds rows
            return rows
        rows = grown


def _seeds(X: Scheme) -> np.ndarray:
    """Row s - 1 holds {0, s, s*}, for each nonzero color s."""
    rows = np.eye(X.rank, dtype=bool)[1:]
    rows[:, 0] = True
    return rows | rows[:, list(X.star)]


def parabolics(X: Scheme) -> tuple[ParabolicSet, ...]:
    """All parabolics, 1_Omega to Omega^2, in mask order: each union of star-orbits
    read as a binary number, one bit per star-orbit in order of least color.

    Each parabolic is the closure of a smaller one plus one color and its star.
    """
    minimal = _closures(X, _seeds(X))
    found = [np.arange(X.rank) == 0]          # {0}: the diagonal alone
    for e in found:
        for f in _closures(X, e | minimal):
            if f.tobytes() not in [g.tobytes() for g in found]:
                found.append(f)
    first = np.arange(X.rank) <= np.array(X.star)
    found.sort(key=lambda f: (f & first)[::-1].tobytes())    # bytes order: the binary number's
    return tuple(_parabolic_set(X, np.flatnonzero(f).tolist()) for f in found)


def _parabolic_set(X: Scheme, colors) -> ParabolicSet:
    """The ParabolicSet of a closed color set, its class size read off the valencies."""
    colors = frozenset(colors)
    class_size = sum(X.valencies[s] for s in colors)
    if X.n % class_size:
        raise InvariantViolated("parabolic classes of unequal size")
    return ParabolicSet(colors, X.n // class_size, class_size)


def parabolic_from_colors(X: Scheme, colors) -> ParabolicSet | None:
    """The parabolic with exactly these colors; None when they are none.

    They form one when they hold 0, are star-closed and every product of two
    of them meets only colors among them: their union is then reflexive,
    symmetric and transitive.  Only the given set is tested; TypeError for
    a non-integer color.
    """
    members = set(colors)
    if 0 not in members or not members <= set(range(X.rank)):
        return None
    if any(X.star[c] not in members for c in members):
        return None
    r = X.rank                  # row a * r + b of the reshaped tensor: c(a, b, t) for each t
    cells = X.tensor.reshape(r * r, r)[[a * r + b for a in members for b in members]]
    met = set(np.nonzero(cells)[1].tolist())      # holds the members, as 0 is among them
    return _parabolic_set(X, met) if met == members else None


def is_primitive(X: Scheme) -> bool:
    """Whether each color's composition closure, the least parabolic holding it, is every color.

    Rank 1 is not primitive: its one parabolic is both trivial ones.
    """
    return X.rank > 1 and bool(_closures(X, _seeds(X)).all())


def parabolic_classes(X: Scheme, e: ParabolicSet) -> np.ndarray:
    """Class index per point, classes numbered by least member.

    Each point's least member marks a root, and a running count of the
    roots numbers the classes.
    """
    inside = np.array([c in e.colors for c in range(X.rank)])
    least = inside[X.matrix].argmax(axis=1)
    roots = np.zeros(X.n, dtype=bool)
    roots[least] = True
    if roots.sum() != e.num_classes:
        raise InvariantViolated(f"{roots.sum()} parabolic classes, want {e.num_classes}")
    return np.cumsum(roots)[least] - 1


def color_lut(matrix: np.ndarray, values: np.ndarray) -> np.ndarray | None:
    """The lut with lut[matrix] == values; None when values is no function of the colors."""
    lut = np.zeros(int(matrix.max()) + 1, dtype=values.dtype)
    lut[matrix] = values              # one value per color; the comparison checks all
    return lut if np.array_equal(lut[matrix], values) else None


def quotient(X: Scheme, e: ParabolicSet) -> Scheme:
    """Quotient scheme on the classes of e.

    Each class pair gets the least color it meets, and these labels,
    numbered in increasing order, are the quotient's colors
    (`_quotient_labels`).  Raises InvariantViolated when a color meets two
    labels, so that e is no parabolic, and `verify_scheme` checks the
    axioms on the label matrix on every call.
    """
    return verify_scheme(_quotient_labels(X, parabolic_classes(X, e), e.num_classes))


def _quotient_labels(X: Scheme, cls: np.ndarray, k: int) -> np.ndarray:
    """The k x k int16 label matrix of `quotient` on the k classes cls, as
    `parabolic_classes` numbers them."""
    block = cls[:, None] * k + cls[None, :]
    least = np.full(k * k, X.rank, dtype=X.matrix.dtype)
    np.minimum.at(least, block.ravel(), X.matrix.ravel())
    lut = color_lut(X.matrix, least[block])
    if lut is None:
        raise InvariantViolated("a color meets two quotient colors")
    used = np.zeros(X.rank, dtype=bool)
    used[lut] = True                  # the least colors, numbered by a running count
    return (np.cumsum(used) - 1).astype(np.int16)[least].reshape(k, k)


def restriction(X: Scheme, points) -> Scheme:
    """Scheme induced on one class of a parabolic (any color-closed subset works)."""
    pts = np.asarray(sorted(points))
    sub = X.matrix[np.ix_(pts, pts)]
    return verify_scheme(np.unique(sub, return_inverse=True)[1].reshape(sub.shape))


# ---------------------------------------------------------------------------
# wreath, tensor and subtensor products


def wreath_product(x1: Scheme, x2: Scheme) -> Scheme:
    """Wreath product on pairs (a1, a2), point index a1 * n2 + a2.

    Inside a class of the second-coordinate parabolic the colors of x1
    survive; across classes only the x2 color of the class pair matters.
    Rank is r1 + r2 - 1.
    """
    n1, n2 = x1.n, x2.n
    r1 = x1.rank
    m1 = x1.matrix.astype(np.int16)
    m2 = x2.matrix.astype(np.int16)
    a1 = np.arange(n1 * n2) // n2
    a2 = np.arange(n1 * n2) % n2
    same = a2[:, None] == a2[None, :]
    out = np.where(same, m1[np.ix_(a1, a1)], m2[np.ix_(a2, a2)] + (r1 - 1))
    return verify_scheme(out.astype(np.int16))


def tensor_product(x1: Scheme, x2: Scheme) -> Scheme:
    """Tensor product: color of a pair is the pair of factor colors; rank r1*r2."""
    n1, n2 = x1.n, x2.n
    a1 = np.arange(n1 * n2) // n2
    a2 = np.arange(n1 * n2) % n2
    c1 = x1.matrix[np.ix_(a1, a1)].astype(np.int64)
    c2 = x2.matrix[np.ix_(a2, a2)].astype(np.int64)
    return verify_scheme(c1 * x2.rank + c2)


def is_subtensor(X: Scheme, e1: ParabolicSet, e2: ParabolicSet) -> tuple[Scheme, Scheme] | None:
    """The quotients (X/e1, X/e2) when X lies inside their tensor product, else None.

    `_subtensor_labels` runs the tests on e1 and e2, and `verify_scheme`
    checks both label matrices it gives on every call.
    """
    labels = _subtensor_labels(X, e1, e2)
    return None if labels is None else (verify_scheme(labels[0]), verify_scheme(labels[1]))


def _subtensor_labels(X: Scheme, e1: ParabolicSet,
                      e2: ParabolicSet) -> tuple[np.ndarray, np.ndarray] | None:
    """The label matrices of X/e1 and X/e2 when X lies inside their tensor product, else None.

    Takes e1 and e2 as `parabolic_from_colors` gives them, untested, and
    requires their class systems to form a grid (each point determined by its
    pair of classes) and every color of X to lie inside one product of
    quotient labels; `l2.max() + 1` is the rank of X/e2.  The classes of each
    are computed once, for the grid test and the labels alike.
    """
    k1, k2 = e1.num_classes, e2.num_classes
    if k1 * k2 != X.n:
        return None
    cls1 = parabolic_classes(X, e1)
    cls2 = parabolic_classes(X, e2)
    if np.bincount(cls1 * k2 + cls2).max() != 1:     # two points share a class pair
        return None
    l1 = _quotient_labels(X, cls1, k1)
    l2 = _quotient_labels(X, cls2, k2)
    key = l1[np.ix_(cls1, cls1)].astype(np.int64) * (l2.max() + 1) + l2[np.ix_(cls2, cls2)]
    return None if color_lut(X.matrix, key) is None else (l1, l2)


# ---------------------------------------------------------------------------
# algebraic automorphisms and fusions


def is_algebraic_map(X: Scheme, perm) -> bool:
    """Whether a color permutation fixes 0, commutes with star and preserves c."""
    perm = tuple(perm)
    if perm[0] != 0:
        return False
    if any(perm[X.star[s]] != X.star[perm[s]] for s in range(X.rank)):
        return False
    p = np.array(perm)
    return bool(np.array_equal(X.tensor[np.ix_(p, p, p)], X.tensor))


def algebraic_fusion(X: Scheme, K: PermGroup) -> Scheme:
    """Merge the colors of X along the orbits of K <= Aaut(X), orbit i to color i."""
    for g in K.generators:
        if not is_algebraic_map(X, g):
            raise NotAlgebraic(f"generator {g} violates the intersection numbers")
    label = {c: i for i, part in enumerate(orbits(K.generators, X.rank)) for c in part}
    return merge(X, [label[c] for c in range(X.rank)])     # orbit [0] first: each g fixes 0


def all_color_permutations_fixing_zero(rank: int):
    """Iterator over every color permutation with image(0) = 0."""
    for rest in permutations(range(1, rank)):
        yield (0,) + rest


# ---------------------------------------------------------------------------
# canonical serialization (stable across releases; cache keys hash this form)


def scheme_to_bytes(X: Scheme) -> bytes:
    """Canonical byte form: magic, version, n, r, matrix, star, tensor.

    Layout: b"AFSC", version u8, n u32le, r u32le, n*n color bytes
    (row-major, u8), r star bytes (u8), r**3 tensor entries (u32le, index
    (r*rank + s)*rank + t).
    """
    n, r = X.n, X.rank
    if r > 255:
        raise ValueError("rank above 255 not serializable")
    head = _MAGIC + struct.pack("<BII", _VERSION, n, r)
    body = X.matrix.astype(np.uint8).tobytes()
    body += bytes(X.star)
    body += X.tensor.astype(np.uint32).tobytes()
    return head + body


def scheme_from_bytes(data: bytes) -> Scheme:
    """The Scheme of a `scheme_to_bytes` form; ValueError for any other bytes."""
    if data[:4] != _MAGIC:
        raise ValueError("bad magic")
    if len(data) < _HEADER_SIZE:
        raise ValueError(f"header of {len(data)} bytes, want {_HEADER_SIZE}")
    version, n, r = struct.unpack("<BII", data[4:_HEADER_SIZE])
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    size = _HEADER_SIZE + n * n + r + 4 * r**3
    if len(data) != size:
        raise ValueError(f"{len(data)} bytes for n={n}, r={r}, want {size}")
    off = _HEADER_SIZE
    m = np.frombuffer(data, dtype=np.uint8, count=n * n, offset=off)
    m = m.reshape(n, n).astype(np.int16)
    off += n * n
    star = tuple(data[off:off + r])
    off += r
    tensor = np.frombuffer(data, dtype="<u4", count=r**3, offset=off)
    X = verify_scheme(m)
    if X.star != star or not np.array_equal(
        X.tensor.ravel(), tensor.astype(np.int64)
    ):
        raise ValueError("serialized star/tensor do not match the matrix")
    return X


def scheme_digest(X: Scheme) -> str:
    return hashlib.sha256(scheme_to_bytes(X)).hexdigest()
