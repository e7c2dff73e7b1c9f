"""Host-speed reference for normalizing wall times on a shared machine.

On a shared host the speed of this process swings by up to 2x within a
minute, with CPU time tracking wall time, so neither clock alone gives a
steady figure.  Timing a fixed job next to each measurement measures the
swing; a time multiplied by ``REF_NOMINAL_S / reference`` is the time at
nominal host speed.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds the reference job takes on the shared 2-core Intel Xeon virtual
# machine the bounds were set on.  The constant only fixes the scale of
# normalized times; any value compares two commits alike.
REF_NOMINAL_S = 0.0085
_X = np.linspace(0.0, 1.0, 64)
_Y = np.linspace(0.2, 0.8, 64)


def host_reference() -> float:
    """Seconds for a fixed job that never changes with the program.

    Three quarters Python arithmetic around tiny numpy calls, one quarter
    64x64 array ops: the two kinds of work the workloads spend their time
    in.  Of the mixes tried, this one tracked the run times of all seven
    kinds of run best across a 200-second probe of the host.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(3600):
        acc += float(np.dot(_X, _X)) + i * 0.5
        if i % 48 == 0:
            acc += float(np.clip(np.outer(_Y, _X) - 0.3, 0.0, 1.0).sum())
    return time.perf_counter() - start
