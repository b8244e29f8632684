#!/usr/bin/env python
"""What Python's cyclic garbage collector costs one host workload.

Builds one host-benchmark workload (``benchmarks/host/workloads.py``)
at ``--scale`` times its contract scale, with the benchmark's per-pass
seeds, and runs its timed region ``--passes`` times with a
``gc.callbacks`` hook installed. Prints, per pass:

* collections per generation;
* the collector's pause seconds and their share of the timed region;
* the tracked-object count at each full (generation 2) collection,
  with its most common types.

The census at a full collection walks the whole heap; its time is
taken out of both the pause and the timed region, so the shares are
those of an uninstrumented run. Tracked objects are what the collector
walks: the fewer a bulk leaves behind, the rarer and shorter its
pauses (docs/ARCHITECTURE.md, "What a bulk's results cost").

Usage::

    PYTHONPATH=src python scripts/gc_cost.py [--workload serve_overload]
        [--scale 1.0] [--seed 29] [--passes 1] [--top 4]
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.host.child import pass_seed  # noqa: E402
from benchmarks.host.metrics import SCALES  # noqa: E402
from benchmarks.host.workloads import WORKLOADS  # noqa: E402


class CollectorMeter:
    """A ``gc.callbacks`` hook: counts collections, times pauses, and
    takes a census of the tracked objects at every full collection."""

    def __init__(self, top: int) -> None:
        self.top = top
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        self.census_s = 0.0
        #: (region seconds, tracked objects, most common types).
        self.full: List[Tuple[float, int, List[Tuple[str, int]]]] = []
        self._region_start = time.perf_counter()
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            if info["generation"] == 2:
                t = time.perf_counter()
                tracked = gc.get_objects()
                types = Counter(type(o).__name__ for o in tracked)
                at = t - self._region_start - self.census_s
                self.full.append((at, len(tracked), types.most_common(self.top)))
                del tracked
                self.census_s += time.perf_counter() - t
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1


def measure(workload: Any, top: int) -> Tuple[float, CollectorMeter]:
    """Run one timed region under the meter; returns (region seconds
    net of the census, meter)."""
    meter = CollectorMeter(top)
    gc.callbacks.append(meter)
    try:
        start = time.perf_counter()
        workload.run()
        region_s = time.perf_counter() - start - meter.census_s
    finally:
        gc.callbacks.remove(meter)
    return region_s, meter


def report(index: int, region_s: float, meter: CollectorMeter) -> None:
    gen0, gen1, gen2 = meter.collections
    print(f"pass {index}: timed region {region_s:.3f} s")
    print(f"  collections  gen0 {gen0}  gen1 {gen1}  gen2 {gen2}")
    share = meter.pause_s / region_s if region_s > 0 else 0.0
    print(f"  pauses       {meter.pause_s:.3f} s ({share:.1%} of the region)")
    for at, tracked, types in meter.full:
        top = ", ".join(f"{name} {count:,}" for name, count in types)
        print(f"  full at {at:6.3f} s: {tracked:,} tracked ({top})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="serve_overload",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiple of the workload's contract scale")
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--top", type=int, default=4,
                        help="types listed per full-collection census")
    args = parser.parse_args()
    scale = SCALES[args.workload] * args.scale
    print(f"{args.workload}, seed {args.seed}, scale {scale:g}")
    for index in range(args.passes):
        workload = None  # free the previous pass before building the next
        workload = WORKLOADS[args.workload](pass_seed(args.seed, index), scale)
        gc.collect()
        report(index, *measure(workload, args.top))


if __name__ == "__main__":
    main()
