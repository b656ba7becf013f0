"""Write bench/reference.json: report digests of serial sweeps without a cache.

    python3 bench/make_reference.py

Run from the root of a source tree.  Check (g) of the benchmark compares
the digests of the p=5 workloads with the entry for p=5.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from planeschemes import partitions_iter, report_digest, run_sweep  # noqa: E402

if __name__ == "__main__":
    digests = {f"p{p}": report_digest(run_sweep(p, partitions_iter(p + 1), cache=None))
               for p in (3, 5)}
    (BENCH / "reference.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(json.dumps(digests))
