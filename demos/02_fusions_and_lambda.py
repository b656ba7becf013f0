#!/usr/bin/env python3
"""Every slope partition yields a fusion scheme; Lambda reads off structure.

Merging parallel classes along any set partition of the slopes always
produces an association scheme.  The set Lambda of block sizes alone
decides imprimitivity (1 in Lambda) and pseudocyclicity (|Lambda| = 1);
this demo verifies both readings against the structural computations.
"""

from planeschemes import (
    bell_number,
    fuse,
    is_primitive,
    is_pseudocyclic,
    lambda_criteria,
    partitions_iter,
)

p = 5
print(f"p = {p}: the slope set has {p+1} labels, so there are "
      f"Bell({p+1}) = {bell_number(p+1)} fusions\n")

print(f"{'partition':>9}  {'rank':>4}  {'valencies':>16}  {'Lambda':>9}  "
      f"{'imprim':>6}  {'pseudo':>6}")
shown = 0
for P in partitions_iter(p + 1):
    X = fuse(p, P)
    imprim, pc = lambda_criteria(P)
    assert imprim == (not is_primitive(X))
    assert pc == is_pseudocyclic(X)
    if shown < 12 or P.num_blocks == 1:
        vals = ",".join(str(v) for v in sorted(X.valencies[1:]))
        lam = "{" + ",".join(str(v) for v in sorted(P.lambda_set())) + "}"
        print(f"{P.as_string():>9}  {X.rank:>4}  {vals:>16}  {lam:>9}  "
              f"{str(imprim):>6}  {str(pc):>6}")
    shown += 1

print(f"\n... all {shown} fusions verified: the Lambda criteria agree with "
      f"the structural predicates everywhere")
