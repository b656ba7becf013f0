"""The scheme of the Galois affine plane AG(2,p) and its slope fusions.

Points of the plane are F_p x F_p enumerated row-major: (x, y) has index
x*p + y.  The nondiagonal colors correspond to the parallel classes: the
color of a pair of distinct points is 1 + the slope label of the line
through them, where slope labels run 0..p-1 for finite slopes dy/dx and the
label p stands for the vertical class.  Slope label order is (0,..,p-1,inf),
matching the projective-point encoding of :mod:`planeschemes.projline`.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonCanonicalPartition
from .permgroup import PermGroup, orbits
from .projline import check_prime, fp_inv
from .scheme import Scheme, frozen_copy, verify_scheme

_RGS_ALPHABET = string.digits + string.ascii_lowercase


@dataclass(frozen=True, order=True)
class SlopePartition:
    """A set partition of the p+1 slope labels, canonically encoded.

    The restricted-growth string (rgs) assigns block indices in order of
    first occurrence along the fixed slope order, so equal partitions have
    equal encodings and string order is the canonical enumeration order.
    """

    rgs: tuple[int, ...]
    _blocks: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: list[list[int]] = []
        for label, v in enumerate(self.rgs):
            if v > len(out) or v < 0:
                raise NonCanonicalPartition(f"not a valid RGS: {self.rgs}")
            if v == len(out):
                out.append([])
            out[v].append(label)
        object.__setattr__(self, "_blocks", tuple(tuple(b) for b in out))

    @property
    def n_labels(self) -> int:
        return len(self.rgs)

    @property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self._blocks

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks())

    def lambda_set(self) -> frozenset[int]:
        return frozenset(self.block_sizes())

    def as_string(self) -> str:
        if self.num_blocks > len(_RGS_ALPHABET):
            raise ValueError("partition has too many blocks to encode")
        return "".join(_RGS_ALPHABET[v] for v in self.rgs)

    @classmethod
    def from_string(cls, text: str) -> "SlopePartition":
        try:
            vals = tuple(_RGS_ALPHABET.index(ch) for ch in text.lower())
        except ValueError:
            raise NonCanonicalPartition(f"bad RGS character in {text!r}") from None
        return cls(vals)

    @classmethod
    def from_blocks(cls, blocks, n_labels: int) -> "SlopePartition":
        assign = {}
        for i, block in enumerate(blocks):
            for label in block:
                if label in assign:
                    raise ValueError(f"label {label} in two blocks")
            for label in block:
                assign[label] = i
        if sorted(assign) != list(range(n_labels)):
            raise ValueError("blocks do not cover the labels exactly")
        return cls(canonical_rgs(assign[label] for label in range(n_labels)))

    def __str__(self) -> str:
        return self.as_string()


def canonical_rgs(labels) -> tuple[int, ...]:
    """The block labels renumbered in order of first occurrence: their partition's rgs."""
    first: dict = {}
    return tuple(first.setdefault(b, len(first)) for b in labels)


def partitions_iter(n: int):
    """Every set partition of n labels exactly once, in lexicographic RGS order."""
    if n < 1 or n > 16:
        raise ValueError("partition enumeration supports 1 <= n <= 16")
    a = [0] * n
    while True:
        yield SlopePartition(tuple(a))
        i = n - 1
        while i > 0 and a[i] > max(a[:i]):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = 0


def bell_number(n: int) -> int:
    """Number of set partitions of n labels, via the Bell triangle."""
    if n < 1:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


@lru_cache(maxsize=None)
def build_affine_scheme(p: int) -> Scheme:
    """The rank p+2 scheme of AG(2,p) on p^2 points, colors labeled by slope."""
    check_prime(p)
    n = p * p
    xs = np.arange(n) // p
    ys = np.arange(n) % p
    dx = (xs[None, :] - xs[:, None]) % p
    dy = (ys[None, :] - ys[:, None]) % p
    inv = np.zeros(p, dtype=np.int64)
    for v in range(1, p):
        inv[v] = fp_inv(v, p)
    slope = (dy * inv[dx]) % p
    m = np.where(dx != 0, slope + 1, np.where(dy != 0, p + 1, 0))
    return verify_scheme(m.astype(np.int16))


@lru_cache(maxsize=None)
def affine_automorphisms(p: int) -> tuple[tuple[int, ...], ...]:
    """Point maps of x -> x + (1,0), x -> x + (0,1) and x -> lam*x, with lam
    the least primitive root mod p.

    They generate the maps x -> lam^k*x + v, which keep the direction of
    every line and so every color of every slope fusion.
    """
    check_prime(p)
    lam = next(g for g in range(2, p + 1)
               if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
    x, y = np.divmod(np.arange(p * p), p)
    maps = ((x + 1) % p * p + y, x * p + (y + 1) % p, lam * x % p * p + lam * y % p)
    return tuple(tuple(int(v) for v in m) for m in maps)


def fusion_matrix(p: int, partition: SlopePartition) -> np.ndarray:
    """The slope colors of AG(2,p) merged along the blocks of the partition."""
    base = build_affine_scheme(p)
    if partition.n_labels != p + 1:
        raise ValueError(f"partition has {partition.n_labels} labels, want {p + 1}")
    color_map = np.zeros(p + 2, dtype=np.int16)
    color_map[1:] = np.array(partition.rgs) + 1     # slope label m has color m + 1
    return color_map[base.matrix]


def amorphic_tensor(p: int, sizes) -> np.ndarray:
    """c[I, J, K] of the slope fusion whose blocks I = 1, 2, .. hold sizes[I-1] slopes.

    For x, y of color K, the z with (x, z) in I and (z, y) in J are the meets
    of the ab - [I=J]a pairs of lines through x and y with slopes s in I, t in J,
    s != t (one point each), less [K=J](a - [I=J]) at x and [K=I](b - [I=J]) at y,
    plus the p - 2 other points of the line xy when I = J = K; a = |I|, b = |J|.
    """
    a = np.array(sizes, dtype=np.int64)
    I, J, K = np.ix_(*[range(len(a))] * 3)
    same = I == J
    tensor = np.zeros((len(a) + 1,) * 3, dtype=np.int64)
    tensor[1:, 1:, 1:] = (a[I] * a[J] - same * a[I] - (K == J) * (a[I] - same)
                          - (K == I) * (a[J] - same) + same * (J == K) * (p - 2))
    tensor[0] = tensor[:, 0] = np.eye(len(a) + 1, dtype=np.int64)     # c_0J^K = c_J0^K = [J=K]
    tensor[1:, 1:, 0] = np.diag(a * (p - 1))                             # the valencies
    return tensor


_fusion_tensor = lru_cache(maxsize=256)(       # shared, so frozen; 128 keys at p=7
    lambda p, sizes: frozen_copy(amorphic_tensor(p, sizes)))


def fuse(p: int, partition: SlopePartition) -> Scheme:
    """The scheme of `fusion_matrix(p, partition)`, its tensor in closed form.

    `amorphic_tensor` gives the block sums of AG(2,p)'s tensor, which `merge`
    would prove constant; verify-paper compares it with direct counts.
    """
    return Scheme(fusion_matrix(p, partition), tuple(range(partition.num_blocks + 1)),
                  _fusion_tensor(p, partition.block_sizes()))


def lambda_criteria(partition: SlopePartition) -> tuple[bool, bool]:
    """(imprimitive, pseudocyclic) of the fusion, read off the Lambda set alone."""
    lam = partition.lambda_set()
    return (1 in lam, len(lam) == 1)


def partition_from_group(group: PermGroup) -> SlopePartition:
    """Blocks are the orbits of a group on the p+1 slope labels."""
    parts = orbits(group.generators, group.degree)
    return SlopePartition.from_blocks(parts, group.degree)
