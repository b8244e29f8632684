"""Cycle cost model for the CPU counterpart.

Mirrors the GPU cost model at the same granularity (micro-ops), with
the Xeon E5520's characteristics: higher clock, superscalar issue, a
cache hierarchy that absorbs most random accesses, and a per-
transaction dispatch overhead for the H-Store-style engine loop.

Why model instead of measuring Python wall-clock: measuring would
benchmark the CPython interpreter, not the paper's design. Both engines
run identical op streams through their respective cost models, so every
GPU/CPU ratio reflects modelled hardware and scheduling, not
interpreter noise (see "Deviations from the paper" in
docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from repro.core.tx_logging import SENTINELS, UndoEntry
from repro.gpu.spec import CPUSpec, XEON_E5520


class CpuCostModel:
    """Per-op cycle charges for one CPU core."""

    def __init__(self, spec: CPUSpec = XEON_E5520) -> None:
        self.spec = spec
        #: Expected cycles of one random memory access given the cache.
        hit, miss = spec.cache_hit_ratio, 1.0 - spec.cache_hit_ratio
        self._mem_cycles = hit * 8.0 + miss * float(spec.memory_latency_cycles)
        self._ipc = spec.superscalar_factor
        #: ``sinf`` via SSE/libm on Nehalem.
        self._sfu_cycles = 20.0

    def memory_access(self, accesses: int = 1) -> float:
        """``accesses`` random reads or writes (an index probe is two)."""
        return accesses * self._mem_cycles

    def compute(self, amount: int) -> float:
        """``amount`` ALU ops through the superscalar pipeline (at least
        one: a lock or branch-tag op is a compute op with no work)."""
        return max(1, amount) / self._ipc

    def sfu(self, amount: int) -> float:
        """``amount`` transcendental calls."""
        return max(1, amount) * self._sfu_cycles

    def insert(self, row_width: int) -> float:
        """Append one row: sequential writes, cache friendly."""
        return 8.0 + row_width / 16.0

    def abort(self) -> float:
        """The abort itself is free; its rollback is charged per entry."""
        return 0.0

    def undo(self, entry: UndoEntry) -> float:
        """Roll back one undo entry: a write restores its before-image
        (one access); cancelling an insert or delete is free."""
        return 0.0 if entry[0] in SENTINELS else self._mem_cycles

    def dispatch(self) -> float:
        """Per-transaction engine overhead (queueing, stored-proc call)."""
        return float(self.spec.txn_dispatch_cycles)

    def seconds(self, cycles: float) -> float:
        return self.spec.seconds(cycles)
