"""GPU data-parallel primitives with analytic cost models.

Section 4.2 of the paper builds the k-set pipeline out of "existing
efficient data-parallel primitives on the GPU" (sort, map, scatter --
the primitive library of He et al. [8]), and PART/grouping use radix
sort / radix partitioning. These kernels are perfectly regular, so
instead of stepping them thread-by-thread through the SIMT engine we
execute them *functionally* with numpy and charge an *analytic* cost:
bytes moved against device bandwidth plus per-pass kernel launches.
That is both faster to simulate and more accurate than an interpreter
for streaming kernels whose performance is bandwidth-bound by design.

Every method returns ``(result, seconds)`` so callers can fold the cost
into their bulk-generation phase timings (Figures 5, 12, 17).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import ConfigError
from repro.gpu.spec import C1060, GPUSpec


class PrimitiveLibrary:
    """Sort/scan/map/search primitives bound to a :class:`GPUSpec`."""

    def __init__(self, spec: GPUSpec = C1060) -> None:
        self.spec = spec
        self._bw = spec.memory_bandwidth_bytes_per_s
        self._launch = spec.kernel_launch_overhead_s

    # ------------------------------------------------------------------
    # Cost helpers.
    # ------------------------------------------------------------------
    def _stream_cost(self, bytes_moved: float, kernels: int = 1) -> float:
        """Seconds for a bandwidth-bound pass over ``bytes_moved``."""
        return bytes_moved / self._bw + kernels * self._launch

    def map_cost(self, n: int, bytes_per_elem: int = 8, flops: int = 4) -> float:
        """Cost of a map over ``n`` elements (read + write + ALU)."""
        compute = n * flops / (self.spec.total_cores * self.spec.clock_hz)
        return max(self._stream_cost(2 * n * bytes_per_elem), compute + self._launch)

    def scan_cost(self, n: int, width: int = 4) -> float:
        """Cost of an exclusive prefix sum (up-sweep + down-sweep)."""
        return self._stream_cost(4 * n * width, kernels=2)

    def radix_pass_cost(self, n: int, record_bytes: int = 12) -> float:
        """One radix partitioning pass: histogram read + scatter write."""
        return self._stream_cost(3 * n * record_bytes, kernels=2)

    def sort_cost(self, n: int, key_bits: int = 32, record_bytes: int = 12,
                  bits_per_pass: int = 4) -> float:
        """Full LSD radix sort of ``n`` records."""
        passes = max(1, math.ceil(key_bits / bits_per_pass))
        return passes * self.radix_pass_cost(n, record_bytes)

    def binary_search_cost(self, n_queries: int, haystack: int) -> float:
        """``n_queries`` binary searches over a sorted array."""
        if haystack <= 1 or n_queries == 0:
            return self._launch
        probes = max(1, math.ceil(math.log2(haystack)))
        bytes_moved = n_queries * probes * self.spec.memory_transaction_bytes
        return self._stream_cost(bytes_moved)

    # ------------------------------------------------------------------
    # Functional primitives (numpy-backed) returning (result, seconds).
    # ------------------------------------------------------------------
    def sort_by_composite(
        self, primary: np.ndarray, secondary: np.ndarray, key_bits: int = 64
    ) -> Tuple[np.ndarray, float]:
        """Order (argsort) by ``(primary, secondary)``; radix cost."""
        order = np.lexsort((secondary, primary))
        cost = self.sort_cost(len(primary), key_bits=key_bits)
        return order, cost

    def radix_partition(
        self, keys: np.ndarray, passes: int, bits_per_pass: int = 4,
        key_bits: int | None = None,
    ) -> Tuple[np.ndarray, float]:
        """Partial MSD radix partitioning (the grouping of Appendix D).

        After ``passes`` passes of ``bits_per_pass`` bits each, records
        are grouped by the top ``passes * bits_per_pass`` bits of the
        key, stably. ``passes=ceil(key_bits/bits)`` is a full grouping.
        Returns the permutation and the cost of the executed passes.
        """
        if passes < 0:
            raise ConfigError("passes must be >= 0")
        n = len(keys)
        if passes == 0 or n == 0:
            return np.arange(n, dtype=np.int64), 0.0
        if key_bits is None:
            high = int(keys.max()) if n else 0
            key_bits = max(1, high.bit_length())
        used_bits = min(key_bits, passes * bits_per_pass)
        shift = key_bits - used_bits
        buckets = (keys.astype(np.int64) >> shift) if shift > 0 else keys
        order = np.argsort(buckets, kind="stable")
        executed = math.ceil(used_bits / bits_per_pass)
        cost = executed * self.radix_pass_cost(n)
        return order, cost

    def group_boundaries(self, sorted_keys: np.ndarray) -> Tuple[np.ndarray, float]:
        """Start offsets of each run of equal keys (a map primitive).

        Returns an index array ``starts`` such that group ``i`` spans
        ``sorted_keys[starts[i]:starts[i+1]]`` (with an implicit final
        boundary at ``len``).
        """
        n = len(sorted_keys)
        if n == 0:
            return np.zeros(0, dtype=np.int64), self._launch
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:])
        starts = np.flatnonzero(change).astype(np.int64)
        return starts, self.map_cost(n)

