#!/usr/bin/env python
"""What a launch's cost replay costs the host, by event count and path.

Runs each built-in workload's transaction mix through a vectorized
``GPUTx`` as bulks of controlled sizes -- TM1 under the chooser (the
serving and cluster workloads), TPC-B under PART and SmallBank at
theta = 0.9 under K-SET (``bulk_wide``'s and ``bulk_contended``'s),
TPC-C under TPL and under K-SET (``bulk_contended``'s) -- and records
every launch's replay inputs. Each recorded launch is then replayed on
both paths of ``replay_kernel``, the scalar pass and the event matrix
(``NARROW_EVENTS`` forced either way), each run on a fresh copy of the
trace and, when the launch stages inserts or deletes, of the store.
The repeats interleave the two paths, so a busy machine slows both
alike. Prints microseconds per launch, best of the repeats, averaged
over the launches of each event-count bucket: the table behind
``NARROW_EVENTS`` in ``repro/core/backends/replay.py``
(docs/ARCHITECTURE.md, "What a launch costs the host").

Usage::

    PYTHONPATH=src python scripts/replay_cost.py [--sizes 4 16 64]
        [--repeats 5] [--mixes TM1 TPC-C/tpl]
"""

from __future__ import annotations

import argparse
import copy
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import EngineOptions, GPUTx
from repro.core.backends import lockstep, replay, vectorized
from repro.storage.catalog import StoreAdapter
from repro.workloads import smallbank, tm1, tpcb, tpcc

PATHS = ("scalar", "array")
#: ``NARROW_EVENTS`` that forces each path.
_FORCE = {"scalar": 1 << 62, "array": -1}
#: Upper event-count bounds of the buckets (the last is open).
BUCKETS = (25, 50, 100, 125, 150, 175, 200, 250, 300, 400, 800)
#: Launches kept per (mix, bulk size): enough to fill the buckets a
#: size reaches, few enough that a run stays around a minute.
MAX_LAUNCHES = 40


def _mixes() -> Dict[str, Tuple[Callable[[], Any], List[Any], str, Callable[..., Any]]]:
    """Mix name -> (database builder, procedures, strategy, generator of
    ``n`` specs from ``seed``)."""
    return {
        "TM1": (
            lambda: tm1.build_database(2),
            tm1.PROCEDURES,
            "auto",
            lambda db, n, seed: tm1.generate_transactions(db, n, seed=seed),
        ),
        "TPC-B/part": (
            lambda: tpcb.build_database(64, accounts_per_branch=20),
            tpcb.PROCEDURES,
            "part",
            lambda db, n, seed: tpcb.generate_transactions(db, n, seed=seed),
        ),
        "SmallBank/kset": (
            lambda: smallbank.build_database(8),
            smallbank.PROCEDURES,
            "kset",
            lambda db, n, seed: smallbank.generate_transactions(
                db, n, seed=seed, theta=0.9
            ),
        ),
        "TPC-C/tpl": (
            lambda: tpcc.build_database(2),
            tpcc.PROCEDURES,
            "tpl",
            lambda db, n, seed: tpcc.generate_transactions(db, n, seed=seed),
        ),
        "TPC-C/kset": (
            lambda: tpcc.build_database(2),
            tpcc.PROCEDURES,
            "kset",
            lambda db, n, seed: tpcc.generate_transactions(db, n, seed=seed),
        ),
    }


def _fresh_store(store: Any) -> Any:
    """``store`` on a copy of its database when the replay will mutate
    it (staged inserts or deletes), else ``store`` itself."""
    if not (store.pending_inserts or store.pending_deletes):
        return store
    twin = copy.copy(store)
    twin.db = store.db.clone()
    twin.adapter = StoreAdapter(twin.db)
    return twin


def _record(mix: str, size: int, bulks: int) -> List[Tuple[Any, ...]]:
    """The replay inputs of up to :data:`MAX_LAUNCHES` launches of
    ``bulks`` bulks of ``size`` transactions of ``mix``, each bulk
    generated from its own seed."""
    build, procedures, strategy, generate = _mixes()[mix]
    db = build()
    engine = GPUTx(
        db, procedures=procedures,
        options=EngineOptions(backend="vectorized"),
    )
    launches: List[Tuple[Any, ...]] = []
    real = replay.replay_kernel

    def capture(recorder, store, sim, outcomes, schedule=None):
        if len(launches) < MAX_LAUNCHES:
            launches.append((
                copy.deepcopy(recorder), _fresh_store(store), sim,
                outcomes, schedule,
            ))
        return real(recorder, store, sim, outcomes, schedule)

    vectorized.replay_kernel = lockstep.replay_kernel = capture
    try:
        for bulk in range(bulks):
            engine.submit_many(generate(db, size, 29 + bulk))
            while len(engine.pool):
                engine.run_bulk(strategy=strategy)
    finally:
        vectorized.replay_kernel = lockstep.replay_kernel = real
    return launches


def _time_once(launch: Tuple[Any, ...], path: str) -> float:
    """Seconds of one replay of ``launch`` on ``path``."""
    recorder, store, sim, outcomes, schedule = launch
    recorder = copy.deepcopy(recorder)
    store = _fresh_store(store)
    replay.NARROW_EVENTS = _FORCE[path]
    start = time.perf_counter()
    replay.replay_kernel(recorder, store, sim, outcomes, schedule)
    return time.perf_counter() - start


def _bucket(events: int) -> str:
    lo = 0
    for hi in BUCKETS:
        if events < hi:
            return f"{lo}-{hi - 1}"
        lo = hi
    return f"{lo}+"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+",
        default=[2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128],
    )
    parser.add_argument("--bulks", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--mixes", nargs="+", default=list(_mixes()))
    args = parser.parse_args()
    narrow = replay.NARROW_EVENTS
    labels = [_bucket(0)] + [_bucket(hi) for hi in BUCKETS]
    print(f"{'mix':<15} {'path':<7}" + "".join(f"{b:>9}" for b in labels))
    cheaper_up_to: Dict[str, int] = {}
    try:
        for mix in args.mixes:
            launches = [
                launch
                for size in args.sizes
                for launch in _record(mix, size, args.bulks)
            ]
            best = [dict.fromkeys(PATHS, float("inf")) for _ in launches]
            for rep in range(args.repeats):
                order = PATHS if rep % 2 == 0 else PATHS[::-1]
                for i, launch in enumerate(launches):
                    for path in order:
                        best[i][path] = min(
                            best[i][path], _time_once(launch, path)
                        )
            cells: Dict[Tuple[str, str], List[float]] = {}
            events = [launch[0].event_count() for launch in launches]
            for n, times in zip(events, best):
                for path in PATHS:
                    cells.setdefault((_bucket(n), path), []).append(times[path])
            for path in PATHS:
                row = []
                for label in labels:
                    cell = cells.get((label, path))
                    row.append(
                        f"{1e6 * sum(cell) / len(cell):9.0f}" if cell else f"{'':>9}"
                    )
                print(f"{mix:<15} {path:<7}" + "".join(row))
            counts = [len(cells.get((label, "scalar"), ())) for label in labels]
            print(f"{mix:<15} {'n':<7}" + "".join(f"{c:>9}" for c in counts))
            # The most events of a launch in the buckets, from the
            # smallest up, where this mix is no dearer on the scalar path.
            limit = 0
            for label in labels:
                cell = cells.get((label, "scalar"))
                if not cell:
                    continue
                if sum(cell) > sum(cells[label, "array"]):
                    break
                limit = max(n for n in events if _bucket(n) == label)
            cheaper_up_to[mix] = limit
    finally:
        replay.NARROW_EVENTS = narrow
    print(
        "scalar no dearer up to (events): "
        + ", ".join(f"{mix} {n}" for mix, n in cheaper_up_to.items())
        + f"; NARROW_EVENTS = {narrow}"
    )


if __name__ == "__main__":
    main()
