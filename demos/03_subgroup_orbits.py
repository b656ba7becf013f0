#!/usr/bin/env python3
"""Orbit-size sets of the named subgroup families of PGL(2,p).

Cyclic, dihedral, and C_p:C_d subgroups have tightly constrained orbit
sizes on the p+1 points of the projective line; alt(4), sym(4), and alt(5)
appear only for suitable p.  Each subgroup's orbits on the slope labels
give the partition of the fusion it realizes.
"""

from planeschemes import find_subgroup, partition_from_group
from planeschemes.subgroups import SubgroupSpec, lemma_orbit_size_bound

for p in (7, 11):
    print(f"\nPGL(2,{p}) on {p+1} points (order {p**3 - p}):")
    specs = [SubgroupSpec("cyclic", d) for d in (2, 3, p - 1, p + 1)]
    specs += [SubgroupSpec("dihedral", d) for d in (2, 3, p)]
    specs += [SubgroupSpec("frobenius", d) for d in (1, 2) if (p - 1) % d == 0]
    specs += [SubgroupSpec("alt4"), SubgroupSpec("sym4"), SubgroupSpec("alt5")]
    for spec in specs:
        sub = find_subgroup(p, spec)
        if sub is None:
            print(f"  {spec.describe():>8}: absent")
            continue
        P = partition_from_group(sub)
        bound = lemma_orbit_size_bound(spec, p)
        within = "" if bound is None else (
            f"  N(K) within {sorted(bound)}" if P.lambda_set() <= bound
            else "  VIOLATION")
        print(f"  {spec.describe():>8}: order {sub.order():>4}, "
              f"orbit sizes {sorted(P.block_sizes())}, "
              f"partition {P.as_string()}{within}")
