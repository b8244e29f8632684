#!/usr/bin/env python
"""What a lane costs the host, by workload, driver and sub-wave width.

Runs each workload's transaction mix on a benchmark-sized database --
SmallBank on ``smallbank.build_database(8)`` and TPC-C on
``tpcc.build_database(16)`` (``bulk_contended``'s), TPC-B on
``tpcb.build_database(64, accounts_per_branch=20)``, TM1 on
``tm1.build_database(2)`` (the serving and cluster workloads'), micro
on 65,536 tuples -- as same-type sub-waves of width ``w``, each either
as ``w`` ``run_lane`` calls or as one ``WaveContext``: the same 512
transactions at every width, one ``TraceRecorder``, its op shapes
flushed once, replay excluded. The repeats interleave widths and drivers, so a busy
machine slows every cell alike. Prints microseconds per lane, best of
the repeats: the table behind ``NARROW_WIDTH`` in
``repro/core/backends/wave.py`` (docs/ARCHITECTURE.md, "What a lane
costs the host").

Usage::

    PYTHONPATH=src python scripts/lane_cost.py [--widths 1 2 4 8] [--repeats 7]
        [--families SmallBank TPC-C]
"""

from __future__ import annotations

import argparse
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.core.backends.wave import TraceRecorder, WaveContext, WaveStore, run_lane
from repro.core.procedure import ProcedureRegistry
from repro.storage.catalog import StoreAdapter
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc

LANES = 512
DRIVERS = ("run_lane", "WaveContext")
MICRO_TUPLES = 1 << 16


def _families() -> Dict[str, Tuple[Callable[[], Any], List[Any], Callable[..., Any]]]:
    """Workload name -> (database builder, procedures, spec generator)."""
    return {
        "SmallBank": (
            lambda: smallbank.build_database(8),
            smallbank.PROCEDURES,
            lambda db, n: smallbank.generate_transactions(db, n, seed=29, theta=0.9),
        ),
        "TPC-C": (
            lambda: tpcc.build_database(16),
            tpcc.PROCEDURES,
            lambda db, n: tpcc.generate_transactions(db, n, seed=29),
        ),
        "TPC-B": (
            lambda: tpcb.build_database(64, accounts_per_branch=20),
            tpcb.PROCEDURES,
            lambda db, n: tpcb.generate_transactions(db, n, seed=29),
        ),
        "TM1": (
            lambda: tm1.build_database(2),
            tm1.PROCEDURES,
            lambda db, n: tm1.generate_transactions(db, n, seed=29),
        ),
        "micro": (
            lambda: micro.build_database(MICRO_TUPLES),
            micro.build_procedures(),
            lambda db, n: micro.generate_transactions(
                n, n_tuples=MICRO_TUPLES, seed=29
            ),
        ),
    }


def _sub_waves(specs, width: int) -> List[List[Tuple[str, tuple]]]:
    """``specs`` as same-type chunks of ``width`` (a type's last chunk
    may be narrower), each type's chunks in spec order."""
    by_type: Dict[str, List[Tuple[str, tuple]]] = {}
    for spec in specs:
        by_type.setdefault(spec[0], []).append(spec)
    return [
        run[i:i + width]
        for run in by_type.values()
        for i in range(0, len(run), width)
    ]


def _time_once(db, registry, mutating, chunks, driver: str) -> float:
    """Seconds to drive ``chunks`` on ``db`` through ``driver``."""
    lanes_total = sum(len(c) for c in chunks)
    store = WaveStore(StoreAdapter(db), mutating)
    recorder = TraceRecorder(lanes_total)
    start = time.perf_counter()
    lane = 0
    for chunk in chunks:
        name = chunk[0][0]
        txn_type, tid = registry.get(name), registry.type_id(name)
        if driver == "run_lane":
            for _name, params in chunk:
                run_lane(
                    recorder, store, lane, tid, txn_type, params,
                    record_abort_ops=True, capture_undo=False,
                )
                lane += 1
        else:
            lanes = np.arange(lane, lane + len(chunk), dtype=np.int64)
            ctx = WaveContext(
                recorder, store, lanes, tid, name,
                [p for _n, p in chunk],
            )
            ctx.set_branch()
            txn_type.vector_body(ctx)
            ctx.close()
            lane += len(chunk)
    recorder.flush()
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--widths", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6, 8, 16]
    )
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--families", nargs="+", default=list(_families()))
    args = parser.parse_args()
    print(f"{'workload':<10} {'driver':<12}"
          + "".join(f"{f'w={w}':>7}" for w in args.widths))
    families = _families()
    for family in args.families:
        build, procedures, generate = families[family]
        db = build()
        registry = ProcedureRegistry()
        registry.register_many(procedures)
        mutating = frozenset().union(*(t.vector_inserts for t in procedures))
        specs = generate(db, LANES)[:LANES]
        cells = [(w, d) for w in args.widths for d in DRIVERS]
        chunks = {w: _sub_waves(specs, w) for w in args.widths}
        best = {cell: float("inf") for cell in cells}
        for _ in range(args.repeats):
            for width, driver in cells:
                seconds = _time_once(
                    db.clone(), registry, mutating, chunks[width], driver
                )
                best[width, driver] = min(best[width, driver], seconds)
        for driver in DRIVERS:
            print(f"{family:<10} {driver:<12}" + "".join(
                f"{1e6 * best[w, driver] / len(specs):7.0f}" for w in args.widths
            ))


if __name__ == "__main__":
    main()
