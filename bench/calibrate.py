"""A fixed task that tracks the speed of the machine, for scaling times.

The machine this benchmark was made on drifts in speed by tens of percent
over seconds and minutes (bench/README.md, "Noise").  Each timed figure is
multiplied by REFERENCE_S / (the time of this task measured next to it),
which states it at the speed the task had when REFERENCE_S was measured.
The task mixes small numpy products with Python loops, as the library does,
and uses only the benchmark's own code, so no change to the library can
move it.
"""

from __future__ import annotations

import time

import numpy as np

from checks import PrimeTables, moebius_group, refinement_trace

# rounds of the task in one calibration
ROUNDS = 20
# median of 315 calibrations of ROUNDS rounds on the reference machine
# (2 cores, Python 3.11.7, numpy 2.4.6); they ranged from 0.14 to 0.27 s
REFERENCE_S = 0.2

_LAYERS = PrimeTables(5).fused_layers("001122")


def calibrate() -> float:
    """Seconds taken by a fixed mix of colour refinement and group building."""
    refinement_trace(_LAYERS, np.arange(25) % 2)      # first-call costs
    start = time.perf_counter()
    for _ in range(ROUNDS):
        for b in range(1, 25):
            col = np.zeros(25, dtype=np.int64)
            col[0], col[b] = 1, 2
            refinement_trace(_LAYERS, col)
        moebius_group(5)
    return time.perf_counter() - start
