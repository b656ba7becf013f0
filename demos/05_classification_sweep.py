#!/usr/bin/env python3
"""The full classification at p = 5: every schurian fusion lands in a case.

Each of the 203 fusions is classified with a re-verifiable witness:
wreath or subtensor of trivial schemes when imprimitive, primitive
pseudocyclic, an exceptional alt(4)/alt(5) orbit fusion, or an involutive
fusion of one of those.  Anything schurian that matched no case would be
reported loudly; there are none.
"""

from collections import Counter

from planeschemes import partitions_iter, run_sweep

p = 5
verdicts = Counter()
samples = {}
for rec in run_sweep(p, partitions_iter(p + 1)):
    assert rec.error is None, f"unclassifiable: {rec.error}"
    verdicts[rec.verdict] += 1
    samples.setdefault(rec.verdict, []).append(rec)

print(f"p = {p}: {sum(verdicts.values())} fusions")
for verdict, count in verdicts.most_common():
    print(f"  {verdict:<22} {count:>4}")

print("\none witness per verdict:")
for verdict, entries in sorted(samples.items()):
    rec = entries[0]
    extra = f", inner = {rec.witness['inner_partition']}" if "inner" in rec.witness else ""
    print(f"  {verdict:<22} {rec.partition_rgs}  witness keys "
          f"{sorted(rec.witness)}{extra}")

schurian = sum(c for v, c in verdicts.items() if v != "NonSchurian")
print(f"\nschurian fusions: {schurian} of {sum(verdicts.values())}; "
      f"all carry machine-checked witnesses")
