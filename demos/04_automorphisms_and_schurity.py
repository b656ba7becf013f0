#!/usr/bin/env python3
"""Automorphism groups and the schurity test.

A fusion is schurian when the 2-orbits of its automorphism group are
exactly its colors.  The four famous fusions at p = 3 carry the four large
groups; most fusions at larger p have only the plane's own symmetries and
fail schurity.
"""

import math

from planeschemes import (
    SlopePartition,
    automorphism_group,
    fuse,
    is_schurian,
    orbitals,
)

p = 3
named = [
    ("0000", "one merged class (trivial scheme)"),
    ("0110", "Hamming scheme H(2,3)"),
    ("0111", "wreath product shape"),
    ("0112", "grid (tensor) shape"),
    ("0123", "the affine scheme itself"),
]
print(f"p = {p}:")
for rgs, label in named:
    X = fuse(p, SlopePartition.from_string(rgs))
    aut = automorphism_group(X)
    labels, count = orbitals(aut.generators, X.n)
    print(f"  {rgs} ({label})")
    print(f"     |Aut| = {aut.order}  2-orbits = {count}  rank = {X.rank}"
          f"  schurian = {count == X.rank}")

print(f"\nreference orders: 9! = {math.factorial(9)}, "
      f"(3!)^3*3! = {math.factorial(3)**3 * math.factorial(3)}, "
      f"2*(3!)^2 = {2 * math.factorial(3)**2}, (3!)^2 = {math.factorial(3)**2}")

p = 5
print(f"\np = {p}: schurity across a few fusions")
for rgs in ("012345", "001122", "010212", "011233", "000000"):
    X = fuse(p, SlopePartition.from_string(rgs))
    print(f"  {rgs}: schurian = {is_schurian(X)}")
