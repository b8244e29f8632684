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
from typing import Any, Iterable, List, Tuple

import numpy as np

from repro.core.backends.base import InterpretedBackend
from repro.core.backends.lockstep import run_locked_schedule
from repro.core.backends.replay import replay_kernel
from repro.core.backends.wave import TraceRecorder, WaveStore, run_sub_wave
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
        by_type = dict(transactions.by_type())
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
        self, executor, parts, boundary_cycles: int, transactions
    ) -> Tuple[KernelReport, ResultColumns]:
        start = _time.perf_counter()
        registry = executor.registry
        names = transactions.type_name
        params = transactions.params
        by_type = transactions.by_type()
        type_names = [name for name, _at in by_type]
        code = np.empty(len(names), dtype=np.int64)
        for c, (_name, at) in enumerate(by_type):
            code[at] = c
        # The types the PART wrapper undo-logs: they roll back inline.
        inline = {name for name in type_names if registry.needs_undo(name)}
        n = len(parts)
        store = self._wave_store(executor, type_names)
        recorder = TraceRecorder(n)
        cur_branch = np.full(n, -1, dtype=np.int64)
        # One slot's outcomes, at their partitions' indices.
        committed = np.ones(n, dtype=bool)
        abort_reason = np.full(n, "", dtype=object)
        results = np.full(n, None, dtype=object)
        undo: List[Any] = [None] * n
        out = (committed, abort_reason, results, undo)
        all_lanes = np.arange(n, dtype=np.int64)
        # The partition-boundary binary searches (one Compute op).
        recorder.record(
            op_ir.COMPUTE, all_lanes, cur_branch.copy(),
            amount=boundary_cycles,
        )
        groups = [positions for _pid, positions in parts]
        lens = np.fromiter(map(len, groups), np.int64, n)
        # Partition ``i``'s slot ``s`` runs the transaction at position
        # ``flat[offsets[i] + s]``.
        flat = np.concatenate(groups).astype(np.int64, copy=False)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        # Every transaction's outcome, at its position in the bulk.
        flat_committed = np.ones(len(names), dtype=bool)
        flat_reason = np.full(len(names), "", dtype=object)
        flat_result = np.full(len(names), None, dtype=object)
        for slot in range(int(lens.max())):
            lanes_slot = np.flatnonzero(lens > slot)
            at = flat[offsets[lanes_slot] + slot]
            codes = code[at]
            # Types in the order their first lane meets them.
            for c in dict.fromkeys(codes.tolist()):
                picked = codes == c
                type_name = type_names[c]
                type_id = registry.type_id(type_name)
                lanes = lanes_slot[picked]
                # Each transaction re-enters its switch case: the
                # partition wrapper's SetBranch executes under the
                # *previous* branch tag, then the stored procedure's
                # own wrapper issues a second (now same-tag) SetBranch.
                recorder.record(op_ir.SET_BRANCH, lanes, cur_branch[lanes])
                cur_branch[lanes] = type_id
                run_sub_wave(
                    recorder, store, lanes, type_id, registry.get(type_name),
                    list(map(params.__getitem__, at[picked].tolist())), out,
                    record_abort_ops=False, capture_undo=False,
                    inline_rollback=type_name in inline,
                )
            flat_committed[at] = committed[lanes_slot]
            flat_reason[at] = abort_reason[lanes_slot]
            flat_result[at] = results[lanes_slot]
            # Loop bookkeeping between transactions (one Compute op).
            recorder.record(
                op_ir.COMPUTE, lanes_slot, cur_branch[lanes_slot], amount=2
            )
        outcomes = OutcomeColumns(
            [pid for pid, _positions in parts], [-1] * n, [True] * n,
            [""] * n, [None] * n,
        )
        report = replay_kernel(recorder, store, executor.engine, outcomes)
        values = flat_result.tolist()
        if store.handed:
            handed = np.zeros(n, dtype=bool)
            handed[list(store.handed)] = True
            store.publish(values, flat[np.repeat(handed, lens)].tolist())
        self.waves_vectorized += 1
        self.wall_launch_seconds += _time.perf_counter() - start
        return report, ResultColumns(
            list(transactions.txn_id), list(names), flat_committed.tolist(),
            flat_reason.tolist(), values,
        )

    # ------------------------------------------------------------------
    def _wave_store(self, executor, type_names: Iterable[str]) -> WaveStore:
        mutating = frozenset().union(
            *(
                executor.registry.get(name).vector_inserts
                for name in type_names
            )
        )
        return WaveStore(executor.adapter, mutating)

