"""Lockstep SIMT execution engine -- the simulated GPU.

This is the substrate substituting for CUDA on a Tesla C1060 (see
docs/ARCHITECTURE.md, "Hardware substitution"). Threads are Python generators
yielding micro-ops (:mod:`repro.gpu.ops`); the engine

* packs them into warps of 32 and thread blocks, assigns blocks to SMs
  round-robin,
* steps every live warp once per *round*, executing at most one op per
  thread per round,
* serialises threads of one warp that sit on different op shapes
  (branch divergence, Appendix A),
* lets spin locks really spin: a failed acquire leaves the thread on
  the same op and burns issue cycles next round,
* serialises conflicting atomics to the same address,
* coalesces each warp-group memory access into 64 B transactions,
* detects deadlock: a full round in which no thread makes progress
  while some are blocked (this is how the basic 0/1-lock TPL of
  Figure 10 fails; the counter lock never trips it).

Functional effects (reads/writes/inserts) are *real*, applied to the
backing :class:`~repro.gpu.memory.DeviceStore`; only time is simulated.
``launch_serial`` implements the paper's ad-hoc baseline: transactions
executed one at a time on a single GPU core (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import eq
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ConfigError,
    DeadlockError,
    ExecutionError,
    KernelTimeoutError,
    check_int,
)
from repro.gpu import ops as op_ir
from repro.gpu.atomics import CounterSpace, LockTable
from repro.gpu.costmodel import GpuCostModel, KernelStats, KernelTiming
from repro.gpu.memory import DeviceStore
from repro.gpu.spec import C1060, GPUSpec

#: Pretend base address of the lock table in device memory (only used
#: for coalescing accounting; any constant clear of table data works).
_LOCK_SPACE_BASE = 1 << 48
_COUNTER_SPACE_BASE = 1 << 49


@dataclass
class ThreadTask:
    """One GPU thread: a generator plus scheduling metadata."""

    txn_id: int
    type_id: int
    body: op_ir.OpStream
    capture_undo: bool = False


@lru_cache(maxsize=64)
def warp_layout(
    n_threads: int, block_size: int, spec: GPUSpec
) -> Tuple[
    List[Tuple[int, int]], List[List[int]], List[int], np.ndarray, np.ndarray
]:
    """Pack ``n_threads`` into warps, blocks, and SMs.

    The single source of truth for thread placement, shared by the
    interpreter's :meth:`SIMTEngine.launch`, the vectorized backend's
    lock scheduler and its cost replay (:mod:`repro.core.backends`),
    which must agree on it exactly. Returns ``(warp_bounds,
    sm_warp_ids, resident_warps, warp_of, sm_of_warp)``: per-warp
    ``[start, end)`` thread ranges, each SM's warp ids in schedule
    order, the per-SM resident-warp count (capped by the occupancy
    ceiling), and the same placement as arrays -- each thread's warp
    and each warp's SM.

    Pure in its arguments and memoised: a serving engine launches the
    same few dozen narrow widths thousands of times. Every caller gets
    the *same* structures, so they are read-only (the arrays enforce
    it; copy a list before changing it). The memo holds the 64 most
    recent launch shapes -- about 12 bytes per thread each, so a few MB
    even when a K-SET bulk cycles through hundreds of widths up to 17k
    threads.
    """
    sm_warp_ids: List[List[int]] = [[] for _ in range(spec.num_sms)]
    bounds: List[Tuple[int, int]] = []
    warp_of = np.empty(n_threads, dtype=np.int64)
    sm_of_warp: List[int] = []
    for b_start in range(0, n_threads, block_size):
        b_end = min(b_start + block_size, n_threads)
        sm = (b_start // block_size) % spec.num_sms
        for w_start in range(b_start, b_end, spec.warp_size):
            w_end = min(w_start + spec.warp_size, b_end)
            warp_of[w_start:w_end] = len(bounds)
            sm_warp_ids[sm].append(len(bounds))
            bounds.append((w_start, w_end))
            sm_of_warp.append(sm)
    resident = [
        min(len(ids), spec.max_blocks_per_sm * (block_size // spec.warp_size))
        for ids in sm_warp_ids
    ]
    sm_of_warp_arr = np.asarray(sm_of_warp, dtype=np.int64)
    warp_of.flags.writeable = False
    sm_of_warp_arr.flags.writeable = False
    return bounds, sm_warp_ids, resident, warp_of, sm_of_warp_arr


#: A thread's undo records, ``(table, column, row, old value)`` each.
UndoLog = List[Tuple[str, str, int, Any]]


@dataclass
class ThreadOutcome:
    """What happened to one thread's transaction(s)."""

    txn_id: int
    type_id: int
    committed: bool
    abort_reason: str = ""
    result: Any = None
    undo: UndoLog = field(default_factory=list)


@dataclass(eq=False)
class OutcomeColumns(Sequence[ThreadOutcome]):
    """One launch's per-thread outcomes: five Python lists in thread
    order, and ``undo``, each non-empty undo log by its thread (in
    thread order). ``outcomes[i]`` builds the row view, a
    :class:`ThreadOutcome`; the record equals any sequence of equal
    rows."""

    txn_id: List[int]
    type_id: List[int]
    committed: List[bool]
    abort_reason: List[str]
    result: List[Any]
    undo: Dict[int, UndoLog] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.txn_id)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[t] for t in range(len(self))[i]]
        t = range(len(self))[i]
        return ThreadOutcome(
            self.txn_id[t], self.type_id[t], self.committed[t],
            self.abort_reason[t], self.result[t], self.undo.get(t, []),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def aborted_count(self) -> int:
        return len(self.committed) - self.committed.count(True)


@dataclass
class KernelReport:
    """Stats + timing + per-thread outcomes of one kernel launch."""

    stats: KernelStats
    timing: KernelTiming
    outcomes: OutcomeColumns

    @property
    def seconds(self) -> float:
        return self.timing.seconds

    @property
    def aborted_count(self) -> int:
        return self.outcomes.aborted_count()


def _apply_atomic(
    counters: Optional[CounterSpace], op: Any, txn_id: int
) -> int:
    """Apply one ``AtomicAdd`` / ``AtomicCAS`` and return the old value."""
    if counters is None:
        raise ExecutionError(
            f"transaction {txn_id} issued an atomic on counter space "
            f"{op.space!r}, but the launch has no CounterSpace"
        )
    if op.kind == op_ir.ATOMIC_ADD:
        return counters.atomic_add(op.space, op.index, op.value)
    return counters.atomic_cas(op.space, op.index, op.compare, op.value)


class _Thread:
    """Mutable per-thread interpreter state."""

    __slots__ = (
        "task",
        "gen",
        "op",
        "send_value",
        "done",
        "aborted",
        "abort_reason",
        "undo",
        "result",
        "held",
        "branch",
    )

    def __init__(self, task: ThreadTask) -> None:
        self.task = task
        self.gen = task.body
        self.op: Optional[op_ir.Op] = None
        self.send_value: Any = None
        self.done = False
        self.aborted = False
        self.abort_reason = ""
        self.undo: UndoLog = []
        self.result: Any = None
        # lock_id -> (key or None, shared)
        self.held: Dict[int, Tuple[Optional[int], bool]] = {}
        # Current switch-case (PC region) for divergence grouping.
        self.branch = task.type_id


def _outcomes_of(threads: Sequence[_Thread]) -> OutcomeColumns:
    """The launch's outcome record, built once from its threads."""
    return OutcomeColumns(
        [t.task.txn_id for t in threads], [t.task.type_id for t in threads],
        [not t.aborted for t in threads], [t.abort_reason for t in threads],
        [t.result for t in threads],
        {i: t.undo for i, t in enumerate(threads) if t.undo},
    )


class SIMTEngine:
    """Executes :class:`ThreadTask` populations on a simulated GPU."""

    def __init__(
        self,
        spec: GPUSpec = C1060,
        *,
        block_size: int = 256,
        max_rounds: int = 2_000_000,
    ) -> None:
        block_size = check_int("block size", block_size)
        if block_size < spec.warp_size or block_size % spec.warp_size:
            raise ConfigError(
                f"block size {block_size} must be a positive multiple of "
                f"the warp size {spec.warp_size}"
            )
        self.spec = spec
        self.cost = GpuCostModel(spec)
        self.block_size = block_size
        self.max_rounds = check_int("max_rounds", max_rounds, 1)
        self._locks: Optional[LockTable] = None

    # ------------------------------------------------------------------
    # Parallel (bulk) launch.
    # ------------------------------------------------------------------
    def launch(
        self,
        tasks: Sequence[ThreadTask],
        store: DeviceStore,
        *,
        locks: Optional[LockTable] = None,
        counters: Optional[CounterSpace] = None,
    ) -> KernelReport:
        """Run all tasks as one kernel; return stats/timing/outcomes."""
        spec = self.spec
        stats = KernelStats(num_sms=spec.num_sms)
        stats.threads_launched = len(tasks)
        self._locks = locks
        threads = [_Thread(t) for t in tasks]

        # Blocks round-robin over SMs; blocks split into warps.
        bounds, sm_warp_ids, resident, _warp_of, _sm_of_warp = warp_layout(
            len(threads), self.block_size, spec
        )
        sm_warps: List[List[List[_Thread]]] = [
            [threads[bounds[w][0] : bounds[w][1]] for w in ids]
            for ids in sm_warp_ids
        ]
        stats.resident_warps = list(resident)

        # Prime every generator with its first op.
        alive = 0
        for thread in threads:
            self._fetch(thread)
            if not thread.done:
                alive += 1

        rounds = 0
        while alive > 0:
            progressed = False
            blocked = 0
            for sm in range(spec.num_sms):
                warps = sm_warps[sm]
                w = 0
                while w < len(warps):
                    warp = warps[w]
                    live = [t for t in warp if not t.done]
                    if not live:
                        warps[w] = warps[-1]
                        warps.pop()
                        continue
                    adv, blk = self._step_warp(live, sm, stats, store, locks, counters)
                    progressed = progressed or adv
                    blocked += blk
                    alive -= sum(1 for t in live if t.done)
                    w += 1
            rounds += 1
            if alive > 0 and not progressed:
                raise DeadlockError(
                    f"no thread progressed in round {rounds}; "
                    f"{blocked} thread(s) blocked on locks "
                    "(basic 0/1 spin locks can deadlock -- see Appendix C)"
                )
            if rounds > self.max_rounds:
                raise KernelTimeoutError(
                    f"kernel exceeded {self.max_rounds} rounds"
                )

        stats.rounds = rounds
        stats.threads_aborted = sum(1 for t in threads if t.aborted)
        timing = self.cost.resolve(stats)
        return KernelReport(
            stats=stats, timing=timing, outcomes=_outcomes_of(threads)
        )

    # ------------------------------------------------------------------
    # Warp stepping.
    # ------------------------------------------------------------------
    def _fetch(self, thread: _Thread) -> None:
        """Advance the generator to its next op (or completion)."""
        try:
            thread.op = thread.gen.send(thread.send_value)
        except StopIteration as stop:
            thread.result = stop.value
            self._finish(thread)
        except Exception as exc:
            raise ExecutionError(
                f"transaction {thread.task.txn_id} raised {exc!r}"
            ) from exc
        thread.send_value = None

    def _finish(self, thread: _Thread) -> None:
        thread.done = True
        thread.op = None
        # Safety net: auto-release anything still held so one aborted
        # transaction cannot wedge the rest of the kernel.
        if thread.held and self._locks is not None:
            for lock_id, (key, shared) in list(thread.held.items()):
                if key is None:
                    self._locks.release_basic(lock_id)
                else:
                    self._locks.release_counter(lock_id, key, shared, advance=True)
            thread.held.clear()

    def _step_warp(
        self,
        live: List[_Thread],
        sm: int,
        stats: KernelStats,
        store: DeviceStore,
        locks: Optional[LockTable],
        counters: Optional[CounterSpace],
    ) -> Tuple[bool, int]:
        """Execute one round of a warp; return (progressed, blocked)."""
        self._locks = locks  # used by _finish for auto-release
        groups: Dict[tuple, List[_Thread]] = {}
        for t in live:
            groups.setdefault((t.branch,) + t.op.shape(), []).append(t)
        if len(groups) > 1:
            stats.divergent_serializations += len(groups) - 1

        cost = self.cost
        progressed = False
        blocked = 0
        for shape, members in groups.items():
            kind = shape[1]
            if kind == op_ir.LOCK_ACQUIRE:
                acquired = 0
                addrs = [_LOCK_SPACE_BASE + t.op.lock_id * 8 for t in members]
                per_lock: Dict[int, int] = {}
                for t in members:
                    op = t.op
                    per_lock[op.lock_id] = per_lock.get(op.lock_id, 0) + 1
                    if op.key is None:
                        ok = locks.try_acquire_basic(op.lock_id)
                    else:
                        ok = locks.try_pass_counter(op.lock_id, op.key)
                    if ok:
                        t.held[op.lock_id] = (op.key, op.shared)
                        self._advance(t, None)
                        acquired += 1
                    else:
                        blocked += 1
                        stats.spin_iterations += 1
                stats.issue_cycles[sm] += cost.issue_spin()
                # Each lane's CAS/read of the lock word is an atomic RMW:
                # lanes hitting the same lock serialise (Appendix C).
                for count in per_lock.values():
                    if count > 1:
                        stats.atomic_cycles[sm] += cost.atomic_serialization(count)
                        stats.atomic_conflicts += count - 1
                ntx = cost.coalesce(addrs, 8)
                stats.mem_transactions[sm] += ntx
                stats.mem_bytes[sm] += ntx * self.spec.memory_transaction_bytes
                if acquired:
                    progressed = True
                stats.ops_executed += acquired
                continue

            # Every other kind always completes this round.
            progressed = True
            stats.ops_executed += len(members)
            if kind == op_ir.READ:
                addrs = []
                width = 8
                for t in members:
                    op = t.op
                    value = store.read(op.table, op.column, op.row)
                    addr, width = store.address_of(op.table, op.column, op.row)
                    addrs.append(addr)
                    self._advance(t, value)
                self._charge_mem(stats, sm, addrs, width)
                stats.issue_cycles[sm] += cost.issue_plain()
            elif kind == op_ir.WRITE:
                addrs = []
                width = 8
                undo_writes = 0
                for t in members:
                    op = t.op
                    old = store.write(op.table, op.column, op.row, op.value)
                    if t.task.capture_undo:
                        t.undo.append((op.table, op.column, op.row, old))
                        undo_writes += 1
                    addr, width = store.address_of(op.table, op.column, op.row)
                    addrs.append(addr)
                    self._advance(t, None)
                self._charge_mem(stats, sm, addrs, width)
                if undo_writes:
                    # Undo-log append in device memory (Appendix D): the
                    # warp's log entries are consecutive, so they coalesce.
                    seg = self.spec.memory_transaction_bytes
                    ntx = (undo_writes * 16 + seg - 1) // seg
                    stats.mem_transactions[sm] += ntx
                    stats.mem_instructions[sm] += 1
                    stats.mem_bytes[sm] += ntx * seg
                    stats.issue_cycles[sm] += cost.issue_plain()
                stats.issue_cycles[sm] += cost.issue_plain()
            elif kind == op_ir.COMPUTE:
                amount = max(t.op.amount for t in members)
                stats.issue_cycles[sm] += cost.issue_compute(amount)
                for t in members:
                    self._advance(t, None)
            elif kind == op_ir.SFU_COMPUTE:
                amount = max(t.op.amount for t in members)
                stats.issue_cycles[sm] += cost.issue_sfu(amount)
                for t in members:
                    self._advance(t, None)
            elif kind == op_ir.LOCK_RELEASE:
                addrs = [_LOCK_SPACE_BASE + t.op.lock_id * 8 for t in members]
                for t in members:
                    op = t.op
                    if op.lock_id not in t.held:
                        raise ExecutionError(
                            f"transaction {t.task.txn_id} released lock "
                            f"{op.lock_id} it does not hold"
                        )
                    key, shared = t.held.pop(op.lock_id)
                    if key is None:
                        locks.release_basic(op.lock_id)
                    else:
                        locks.release_counter(op.lock_id, key, shared, op.advance)
                    self._advance(t, None)
                # The release is an atomic RMW on the lock word.
                ntx = cost.coalesce(addrs, 8)
                stats.mem_transactions[sm] += ntx
                stats.mem_instructions[sm] += 1
                stats.mem_bytes[sm] += ntx * self.spec.memory_transaction_bytes
                stats.issue_cycles[sm] += cost.issue_plain()
            elif kind in (op_ir.ATOMIC_ADD, op_ir.ATOMIC_CAS):
                per_slot: Dict[Tuple[str, int], int] = {}
                for t in members:
                    op = t.op
                    old = _apply_atomic(counters, op, t.task.txn_id)
                    slot = (op.space, op.index)
                    per_slot[slot] = per_slot.get(slot, 0) + 1
                    self._advance(t, old)
                stats.issue_cycles[sm] += cost.issue_plain()
                stats.mem_instructions[sm] += 1
                for (space, index), count in per_slot.items():
                    stats.mem_transactions[sm] += 1
                    stats.mem_bytes[sm] += self.spec.memory_transaction_bytes
                    if count > 1:
                        stats.atomic_cycles[sm] += cost.atomic_serialization(count)
                        stats.atomic_conflicts += count - 1
            elif kind == op_ir.INDEX_PROBE:
                addrs: List[int] = []
                width = 8
                for t in members:
                    op = t.op
                    row = store.probe(op.index, op.key)
                    for addr, width in store.probe_cost_addresses(op.index, op.key):
                        addrs.append(addr)
                    self._advance(t, row)
                self._charge_mem(stats, sm, addrs, width)
                stats.issue_cycles[sm] += 2 * cost.issue_plain()
            elif kind == op_ir.INSERT_ROW:
                per_table: Dict[str, int] = {}
                for t in members:
                    op = t.op
                    provisional = store.insert(op.table, op.values)
                    if t.task.capture_undo:
                        t.undo.append(("__insert__", op.table, provisional, None))
                    width = store.row_width(op.table)
                    seg = self.spec.memory_transaction_bytes
                    ntx = (width + seg - 1) // seg
                    stats.mem_transactions[sm] += ntx
                    stats.mem_bytes[sm] += ntx * seg
                    per_table[op.table] = per_table.get(op.table, 0) + 1
                    self._advance(t, provisional)
                stats.mem_instructions[sm] += 1
                stats.issue_cycles[sm] += cost.issue_plain()
                for count in per_table.values():
                    # Buffer-tail allocation is an atomicAdd per insert.
                    if count > 1:
                        stats.atomic_cycles[sm] += cost.atomic_serialization(count)
                        stats.atomic_conflicts += count - 1
            elif kind == op_ir.DELETE_ROW:
                for t in members:
                    op = t.op
                    store.delete(op.table, op.row)
                    if t.task.capture_undo:
                        t.undo.append(("__delete__", op.table, op.row, None))
                    stats.mem_transactions[sm] += 1
                    stats.mem_bytes[sm] += self.spec.memory_transaction_bytes
                    self._advance(t, None)
                stats.mem_instructions[sm] += 1
                stats.issue_cycles[sm] += cost.issue_plain()
            elif kind == op_ir.SET_BRANCH:
                for t in members:
                    t.branch = t.op.tag
                    self._advance(t, None)
                stats.issue_cycles[sm] += cost.issue_plain()
            elif kind == op_ir.ABORT:
                for t in members:
                    t.aborted = True
                    t.abort_reason = t.op.reason
                    self._finish(t)
                stats.issue_cycles[sm] += cost.issue_plain()
            else:  # pragma: no cover - op table is closed
                raise ExecutionError(f"unknown op kind {kind}")
        return progressed, blocked

    def _advance(self, thread: _Thread, result: Any) -> None:
        thread.send_value = result
        self._fetch(thread)

    def _charge_mem(
        self, stats: KernelStats, sm: int, addrs: List[int], width: int
    ) -> None:
        ntx = self.cost.coalesce(addrs, width)
        stats.mem_transactions[sm] += ntx
        stats.mem_instructions[sm] += 1
        stats.mem_bytes[sm] += ntx * self.spec.memory_transaction_bytes

    # ------------------------------------------------------------------
    # Serial (ad-hoc) launch: one transaction at a time, one GPU core.
    # ------------------------------------------------------------------
    def launch_serial(
        self,
        tasks: Sequence[ThreadTask],
        store: DeviceStore,
        *,
        counters: Optional[CounterSpace] = None,
        per_task_launch_overhead: bool = True,
    ) -> KernelReport:
        """Ad-hoc execution baseline (Section 6.3).

        Each transaction runs to completion on a single scalar core
        before the next starts. Lock ops are no-ops (there is no
        concurrency), every memory access pays the full device latency
        (no coalescing partner, no latency hiding), and -- when
        ``per_task_launch_overhead`` -- every transaction pays one
        kernel launch.
        """
        spec = self.spec
        stats = KernelStats(num_sms=spec.num_sms)
        stats.threads_launched = len(tasks)
        stats.resident_warps[0] = 1
        threads: List[_Thread] = []
        serial_overhead = float(spec.serial_op_overhead_cycles)
        issue = 0.0
        launches = 0

        for task in tasks:
            thread = _Thread(task)
            launches += 1
            gen = thread.gen
            send: Any = None
            while not thread.done:
                try:
                    op = gen.send(send)
                except StopIteration as stop:
                    thread.result = stop.value
                    thread.done = True
                    break
                send = None
                stats.ops_executed += 1
                kind = op.kind
                issue += serial_overhead
                if kind == op_ir.READ:
                    send = store.read(op.table, op.column, op.row)
                    stats.mem_transactions[0] += 1
                    stats.mem_bytes[0] += spec.memory_transaction_bytes
                elif kind == op_ir.WRITE:
                    old = store.write(op.table, op.column, op.row, op.value)
                    if task.capture_undo:
                        thread.undo.append((op.table, op.column, op.row, old))
                    stats.mem_transactions[0] += 1
                    stats.mem_bytes[0] += spec.memory_transaction_bytes
                elif kind == op_ir.ATOMIC_ADD or kind == op_ir.ATOMIC_CAS:
                    send = _apply_atomic(counters, op, task.txn_id)
                    stats.mem_transactions[0] += 1
                    stats.mem_bytes[0] += spec.memory_transaction_bytes
                elif kind == op_ir.COMPUTE:
                    issue += float(op.amount)
                elif kind == op_ir.SFU_COMPUTE:
                    issue += float(op.amount * spec.sfu_op_cycles)
                elif kind == op_ir.INDEX_PROBE:
                    send = store.probe(op.index, op.key)
                    stats.mem_transactions[0] += 2
                    stats.mem_bytes[0] += 2 * spec.memory_transaction_bytes
                elif kind == op_ir.INSERT_ROW:
                    send = store.insert(op.table, op.values)
                    if task.capture_undo:
                        thread.undo.append(("__insert__", op.table, send, None))
                    width = store.row_width(op.table)
                    seg = spec.memory_transaction_bytes
                    ntx = (width + seg - 1) // seg
                    stats.mem_transactions[0] += ntx
                    stats.mem_bytes[0] += ntx * seg
                elif kind == op_ir.DELETE_ROW:
                    store.delete(op.table, op.row)
                    if task.capture_undo:
                        thread.undo.append(("__delete__", op.table, op.row, None))
                    stats.mem_transactions[0] += 1
                    stats.mem_bytes[0] += spec.memory_transaction_bytes
                elif kind == op_ir.ABORT:
                    thread.aborted = True
                    thread.abort_reason = op.reason
                    thread.done = True
                    # Serial semantics: successors run immediately after
                    # us, so roll our effects back inline (the bulk
                    # executors roll back post-kernel instead, which is
                    # safe there because conflicting successors are
                    # ordered into later rounds/partition slots).
                    for entry in reversed(thread.undo):
                        table, column, row, old = entry
                        if table == "__insert__":
                            store.cancel_insert(column, row)
                        elif table == "__delete__":
                            store.cancel_delete(column, row)
                        else:
                            store.write(table, column, row, old)
                        stats.mem_transactions[0] += 1
                        stats.mem_bytes[0] += spec.memory_transaction_bytes
                    thread.undo.clear()
                # Lock ops are free of contention when serial.
            threads.append(thread)

        outcomes = _outcomes_of(threads)
        stats.issue_cycles[0] = issue
        stats.threads_aborted = outcomes.aborted_count()
        # A lone thread cannot overlap memory stalls with issue: the
        # dependent chain pays latency *additively*, unlike the warp
        # path where resolve() models overlap and bandwidth limits.
        stats.mem_instructions[0] = stats.mem_transactions[0]
        mem_cycles = stats.mem_transactions[0] * float(spec.memory_latency_cycles)
        cycles = issue + mem_cycles
        extra = spec.kernel_launch_overhead_s * (
            launches if per_task_launch_overhead else 1
        )
        timing = KernelTiming(
            cycles=cycles,
            seconds=spec.seconds(cycles) + extra,
            issue_cycles=issue,
            memory_cycles=mem_cycles,
            atomic_cycles=0.0,
            bound="memory" if mem_cycles > issue else "compute",
        )
        return KernelReport(stats=stats, timing=timing, outcomes=outcomes)
