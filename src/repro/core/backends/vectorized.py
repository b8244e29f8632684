"""The vectorized NumPy execution backend.

Executes K-SET waves, TPL bulks and PART partition schedules as
batched column kernels (:mod:`repro.core.backends.wave`) and
reproduces the SIMT interpreter's cost accounting exactly
(:mod:`repro.core.backends.replay`). The result is byte-identical to
the interpreted backend -- same outcomes, same final physical state,
same simulated-clock figures -- at a fraction of the host wall-clock
cost, which is what lets the serving and cluster layers push real
traffic through the simulator ("as fast as the hardware allows").

There is one thread-per-transaction launch,
:func:`~repro.core.backends.lockstep.run_locked_schedule`: counter-lock
spin rounds are derived in closed form from the release schedule,
bodies run as column kernels the moment their locks are granted, and
abort-capable launches journal before-images as bulk gathers
(vectorized undo capture). A K-SET wave is that launch with every lock
plan empty. PART's one-thread-per-partition sweep is the other launch.

Every launch it is given runs here: a type without a vector form runs
lane by lane (:func:`~repro.core.backends.wave.run_lane`) at any
width, and on the partition path a type that needs undo logging rolls
back inline, as the PART wrapper does. (The ad-hoc and relaxed-TPL
strategies never reach a backend: they launch on the SIMT engine
directly.) Building a vectorized engine on a row-layout store is a
``ConfigError`` (:class:`~repro.core.engine.GPUTx`).
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, List

import numpy as np

from repro.core.backends.base import InterpretedBackend, PartitionOutcomes
from repro.core.backends.lockstep import run_locked_schedule
from repro.core.backends.replay import replay_kernel
from repro.core.backends.wave import (
    HANDLE_BASE, TraceRecorder, WaveStore, run_sub_wave,
)
from repro.core.tx_logging import DELETE_SENTINEL, INSERT_SENTINEL, remap_handle_rows
from repro.core.txn import ResultColumns
from repro.gpu import ops as op_ir
from repro.gpu.simt import KernelReport, OutcomeColumns


class VectorizedBackend(InterpretedBackend):
    """Batched NumPy wave execution with exact cost replay."""

    name = "vectorized"

    def __init__(self) -> None:
        super().__init__()
        #: How many launches ran.
        self.waves_vectorized = 0
        #: ``waves_vectorized`` as of the last :meth:`bulk_path` call.
        self._path_mark = 0

    def bulk_path(self) -> str:
        launched = self.waves_vectorized > self._path_mark
        self._path_mark = self.waves_vectorized
        return "vectorized" if launched else "interpreted"

    # ------------------------------------------------------------------
    # One thread per transaction: TPL behind counter-lock gates, and
    # K-SET's conflict-free waves as the launch with no gates at all.
    # ------------------------------------------------------------------
    def launch_wave(self, executor, transactions) -> KernelReport:
        return self._launch_threads(
            executor, transactions, ((),) * len(transactions), None
        )

    def launch_locked(self, executor, transactions, plans, locks):
        return self._launch_threads(executor, transactions, plans, locks)

    def _launch_threads(
        self, executor, transactions, plans, locks
    ) -> KernelReport:
        """Run one thread per transaction through the lock scheduler."""
        by_type: Dict[str, List[int]] = {}
        for i, txn in enumerate(transactions):
            by_type.setdefault(txn.type_name, []).append(i)
        start = _time.perf_counter()
        report = run_locked_schedule(
            executor, transactions, by_type, plans, locks,
            self._wave_store(executor, by_type),
        )
        self.waves_vectorized += 1
        self.wall_launch_seconds += _time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    # PART: one thread per partition, transactions back to back.
    # ------------------------------------------------------------------
    def launch_partitions(
        self, executor, parts, boundary_cycles: int
    ) -> KernelReport:
        start = _time.perf_counter()
        registry = executor.registry
        type_names = {
            txn.type_name for _pid, txns in parts for txn in txns
        }
        # The types the PART wrapper undo-logs: they roll back inline.
        inline = {name for name in type_names if registry.needs_undo(name)}
        n = len(parts)
        by_type = {name: [0] for name in type_names}  # tables only
        store = self._wave_store(executor, by_type)
        recorder = TraceRecorder(n)
        cur_branch = np.full(n, -1, dtype=np.int64)
        # One slot's outcomes, at their partitions' indices.
        committed = np.ones(n, dtype=bool)
        abort_reason = np.full(n, "", dtype=object)
        results = np.full(n, None, dtype=object)
        undo: List[Any] = [None] * n
        out = (committed, abort_reason, results, undo)
        # Partition -> the undo logs of its aborted transactions.
        aborted_logs: Dict[int, List[Any]] = {}
        all_lanes = np.arange(n, dtype=np.int64)
        # The partition-boundary binary searches (one Compute op).
        recorder.record(
            op_ir.COMPUTE, all_lanes, cur_branch.copy(),
            amount=boundary_cycles,
        )
        part_txns = [txns for _pid, txns in parts]
        lens = np.fromiter((len(t) for t in part_txns), np.int64, n)
        max_slots = int(lens.max())
        # Every transaction's outcome, partition after partition.
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        flat_committed = np.ones(offsets[-1], dtype=bool)
        flat_reason = np.full(offsets[-1], "", dtype=object)
        flat_result = np.full(offsets[-1], None, dtype=object)
        for slot in range(max_slots):
            lanes_slot = np.flatnonzero(lens > slot)
            slot_types: Dict[str, List[int]] = {}
            for i in lanes_slot.tolist():
                slot_types.setdefault(
                    part_txns[i][slot].type_name, []
                ).append(i)
            for type_name, lane_list in slot_types.items():
                txn_type = registry.get(type_name)
                type_id = registry.type_id(type_name)
                lanes = np.asarray(lane_list, dtype=np.int64)
                txns_slot = [part_txns[i][slot] for i in lane_list]
                # Each transaction re-enters its switch case: the
                # partition wrapper's SetBranch executes under the
                # *previous* branch tag, then the stored procedure's
                # own wrapper issues a second (now same-tag) SetBranch.
                recorder.record(op_ir.SET_BRANCH, lanes, cur_branch[lanes])
                cur_branch[lanes] = type_id
                run_sub_wave(
                    recorder, store, lanes, type_id, txn_type, txns_slot, out,
                    record_abort_ops=False, capture_undo=False,
                    inline_rollback=type_name in inline,
                )
                if type_name in inline:
                    for i in lane_list:
                        if not committed[i]:
                            aborted_logs.setdefault(i, []).extend(undo[i])
            at = offsets[lanes_slot] + slot
            flat_committed[at] = committed[lanes_slot]
            flat_reason[at] = abort_reason[lanes_slot]
            flat_result[at] = results[lanes_slot]
            # Loop bookkeeping between transactions (one Compute op).
            recorder.record(
                op_ir.COMPUTE, lanes_slot, cur_branch[lanes_slot], amount=2
            )
        flat = ResultColumns(
            [txn.txn_id for txns in part_txns for txn in txns],
            [txn.type_name for txns in part_txns for txn in txns],
            flat_committed.tolist(), flat_reason.tolist(), flat_result.tolist(),
        )
        bounds = offsets.tolist()
        outcomes = OutcomeColumns(
            [pid for pid, _txns in parts], [-1] * n, [True] * n, [""] * n,
            [
                PartitionOutcomes(flat[a:b], [], [])
                for a, b in zip(bounds, bounds[1:])
            ],
        )
        report = replay_kernel(recorder, store, executor.engine, outcomes)
        # What the aborted transactions staged, under the physical row
        # ids the replay assigned: the partitions' cancel lists.
        for i, log in aborted_logs.items():
            part = outcomes.result[i]
            for kind, table, row, _old in remap_handle_rows(
                log, store.handle_row, HANDLE_BASE
            ):
                if kind == INSERT_SENTINEL:
                    part.cancel_inserts.append((table, row))
                elif kind == DELETE_SENTINEL:
                    part.cancel_deletes.append((table, row))
        self.waves_vectorized += 1
        self.wall_launch_seconds += _time.perf_counter() - start
        return report

    # ------------------------------------------------------------------
    def _wave_store(self, executor, by_type: Dict[str, List[int]]) -> WaveStore:
        mutating = frozenset().union(
            *(
                executor.registry.get(name).vector_inserts
                for name in by_type
            )
        )
        return WaveStore(executor.adapter, mutating)

