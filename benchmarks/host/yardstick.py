"""A fixed piece of work that tells how fast the host is right now.

This sandbox's CPU speed steps by 20-40 % for seconds to minutes at a
time (a shared core), so the same code measured twice differs by more
than any bound worth gating on: ten runs of one commit spread 12-27 %
on raw ``txn/s``. The slow part of that wander hits all code alike, so
it can be measured and divided out. Each timed region is bracketed by
*slices* of this yardstick -- a fixed mix of interpreter work (calls,
dict lookups, float arithmetic) and small NumPy kernels, the same mix
the program is made of -- and every host-clock time is scaled by
``NOMINAL_SLICE_S / measured slice time``. A host-clock metric
therefore reads as "on a host that runs one slice in
``NOMINAL_SLICE_S``", whatever the core was doing at the time.

The yardstick belongs to the benchmark, not to the program: it touches
no ``repro`` code, so no change to the program can move it. It
allocates no containers, so it neither triggers nor pays for a cyclic
GC pass over the program's heap.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Seconds one slice takes on this sandbox at its usual speed. Only
#: sets the scale of the calibrated metrics; comparisons between two
#: commits never see it.
NOMINAL_SLICE_S = 0.0025

_KEYS = 5000
_LANES = 4096


class Yardstick:
    """Preallocated state plus :meth:`slice`, the fixed work."""

    def __init__(self) -> None:
        self._keys = list(range(_KEYS))
        self._table = {k: float(k) for k in self._keys}
        self._ints = np.arange(_LANES, dtype=np.int64)
        self._index = self._ints % _LANES
        self._int_out = np.zeros(_LANES, dtype=np.int64)
        self._floats = np.linspace(0.0, 1.0, _LANES)
        self._float_out = np.zeros(_LANES)

    @staticmethod
    def _bump(x: float) -> float:
        return x + 1.0

    def slice(self) -> float:
        """Do the fixed work once; returns its host seconds."""
        start = time.perf_counter()
        table, bump, total = self._table, self._bump, 0.0
        for _ in range(4):
            for key in self._keys:
                total = bump(total) + table[key]
        ints, out = self._ints, self._int_out
        floats, fout = self._floats, self._float_out
        for _ in range(150):
            np.add(ints, 1, out=out)
            np.multiply(floats, 1.0001, out=fout)
            out.sum()
            np.take(floats, self._index, out=fout)
        return time.perf_counter() - start

    def slices(self, n: int) -> List[float]:
        return [self.slice() for _ in range(n)]


def speed(before: List[float], after: List[float]) -> float:
    """Host speed over a region bracketed by two runs of slices,
    relative to nominal (> 1 = faster than nominal). Each bracket is a
    median (a stolen time slice must not count), the region gets their
    mean (the speed may step in between)."""
    bracket = (statistics.median(before) + statistics.median(after)) / 2.0
    return NOMINAL_SLICE_S / bracket
