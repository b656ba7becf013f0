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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonCanonicalPartition
from .permgroup import PermGroup, orbits
from .projline import check_prime, fp_inv
from .scheme import Scheme, merge, verify_scheme

_RGS_ALPHABET = string.digits + string.ascii_lowercase


@dataclass(frozen=True, order=True)
class SlopePartition:
    """A set partition of the p+1 slope labels, canonically encoded.

    The restricted-growth string (rgs) assigns block indices in order of
    first occurrence along the fixed slope order, so equal partitions have
    equal encodings and string order is the canonical enumeration order.
    """

    rgs: tuple[int, ...]

    def __post_init__(self):
        mx = -1
        for v in self.rgs:
            if v > mx + 1 or v < 0:
                raise NonCanonicalPartition(f"not a valid RGS: {self.rgs}")
            mx = max(mx, v)

    @property
    def n_labels(self) -> int:
        return len(self.rgs)

    @property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for label, b in enumerate(self.rgs):
            out[b].append(label)
        return tuple(tuple(b) for b in out)

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
        renum: dict[int, int] = {}
        rgs = []
        for label in range(n_labels):
            b = assign[label]
            if b not in renum:
                renum[b] = len(renum)
            rgs.append(renum[b])
        return cls(tuple(rgs))

    def __str__(self) -> str:
        return self.as_string()


def identity_partition(n_labels: int) -> SlopePartition:
    return SlopePartition(tuple(range(n_labels)))


def one_block_partition(n_labels: int) -> SlopePartition:
    return SlopePartition((0,) * n_labels)


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


def fuse(p: int, partition: SlopePartition) -> Scheme:
    """The scheme of `fusion_matrix(p, partition)`, merged from AG(2,p)'s tensor.

    The merge must succeed for every partition: a failure is an internal error.
    """
    return merge(build_affine_scheme(p), (0,) + tuple(b + 1 for b in partition.rgs))


def lambda_criteria(partition: SlopePartition) -> tuple[bool, bool]:
    """(imprimitive, pseudocyclic) of the fusion, read off the Lambda set alone."""
    lam = partition.lambda_set()
    return (1 in lam, len(lam) == 1)


def partition_from_group(group: PermGroup) -> SlopePartition:
    """Blocks are the orbits of a group on the p+1 slope labels."""
    parts = orbits(group.generators, group.degree)
    return SlopePartition.from_blocks(parts, group.degree)
