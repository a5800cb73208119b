"""Host-speed calibration.

On the shared 2-vCPU machine the benchmark was tuned on, the same pass of
the same code took anywhere from 2.3 s to 5.0 s: the host's speed drifts
over seconds and over minutes, and CPU time moves with wall time, so a
median of raw times still drifted by a third between runs a few minutes
apart.  ``chunk`` times a fixed piece of pure-Python rational arithmetic
that shares no code with normext.  A pass runs one chunk before its first
operation and one after each operation, and multiplies each time it
reports by ``factor`` of the chunks run nearest to it: times are given in
seconds of a host that runs the chunk in ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# median chunk time on that machine (Python 3.11.7, 2 vCPUs), so that
# scaled times are close to the raw times seen there at its usual speed
REFERENCE_S = 0.0100


def chunk() -> float:
    """Seconds for the fixed calibration work; the collector stays off so
    that the size of the program's heap cannot change the result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        c = Fraction(3, 7)
        acc: dict[int, Fraction] = {}
        for i in range(1, 2000):
            a = Fraction(i % 17 + 1, i % 13 + 2)
            acc[i % 29] = acc.get(i % 29, Fraction(0)) - c * a
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def factor(chunks) -> float:
    """Factor for a time measured while these chunks ran nearby; the median
    ignores a chunk that a short stall of the host slowed."""
    return REFERENCE_S / statistics.median(chunks)
