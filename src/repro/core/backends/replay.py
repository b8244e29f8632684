"""Vectorized replay of the SIMT interpreter's cost accounting.

Without lock ops, every live thread of a kernel advances exactly one
micro-op per round in :class:`~repro.gpu.simt.SIMTEngine`. The
kernel's simulated cost is therefore a pure function of the per-thread
op traces: round ``r`` executes each thread's ``r``-th op, a warp's
live threads group by ``(branch, kind)``, and each group's charges
depend only on its kind, addresses, and sizes. This module evaluates
that function over whole trace arrays at once and produces a
:class:`~repro.gpu.costmodel.KernelStats` *identical* to stepping the
interpreter -- the contract the vectorized backend's simulated-clock
equivalence rests on (asserted field-by-field in the backend tests).

The host pays per pass, so a launch is charged one of two ways, chosen
by one test on its recorded event count: at most :data:`NARROW_EVENTS`
events are grouped and charged as Python tuples (a narrow PART slot, a
K-SET wave's tail, a serving sub-bulk), more as one ``(10, E)`` event
matrix of NumPy passes. Both read the same per-kind charge table and
``GpuCostModel.coalesce``'s rule, and both apply the staged mutations
through one helper (tests/property/test_replay_paths.py diffs them).

It also computes the interpreter's *event order* -- rounds ascending,
SMs in index order, warps in the scheduler's visit order (with its
swap-removal of finished warps), divergent groups in first-occurrence
order, lanes in warp order -- which fixes two things the trace alone
does not: the physical order in which staged inserts append rows
(physical state must be byte-identical across backends) and the
device addresses of cells in tables whose row count moves mid-kernel
(column offsets scale with ``n_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, groupby, repeat
from operator import add, itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import tx_logging
from repro.gpu import ops as op_ir
from repro.gpu.costmodel import KernelStats
from repro.gpu.simt import KernelReport, OutcomeColumns, warp_layout

from repro.core.backends.wave import HANDLE_BASE, Step, TraceRecorder, WaveStore

#: Rows of the event matrix: one column per recorded (thread, op)
#: event. Rows 0-3 are the divergence-group key -- a warp's live
#: threads of one round group by ``(branch, kind)`` -- and the branch
#: row holds ``tag + 1`` so the untagged -1 packs as 0. Rows 2-6 are
#: constant per recorded step and filled by one ``repeat`` of the step
#: table; the thread row is a sort key only and is not carried into
#: the sorted matrix.
_ROUND, _WARP, _BRANCH, _KIND, _AMOUNT, _WIDTH, _STEP, _ADDR, _ADDR2, _THREAD = (
    range(10)
)

_N_KINDS = max(op_ir.KIND_NAMES) + 1

#: What one divergence group of each op kind charges: (does it pack
#: its members' addresses into memory transactions, memory
#: instructions -- the latency unit --, plain warp instructions). A
#: LOCK_RELEASE group charges exactly like a READ/WRITE group (the
#: interpreter coalesces the released lock words); a probe touches two
#: words per member and issues twice. Kinds not listed charge nothing
#: here: LOCK_ACQUIRE pass events (the acquire-round charges, which
#: depend on blocked spinners absent from the trace, arrive via
#: ``schedule``) and COMPUTE/SFU groups (charged by amount).
_KIND_CHARGES = {
    op_ir.READ: (1, 1, 1),
    op_ir.WRITE: (1, 1, 1),
    op_ir.LOCK_RELEASE: (1, 1, 1),
    op_ir.INDEX_PROBE: (1, 1, 2),
    op_ir.INSERT_ROW: (0, 1, 1),
    op_ir.DELETE_ROW: (0, 1, 1),
    op_ir.SET_BRANCH: (0, 0, 1),
    op_ir.ABORT: (0, 0, 1),
}
#: The charges of a kind :data:`_KIND_CHARGES` does not list.
_NO_CHARGE = (0, 0, 0)
#: The three columns as lookup tables indexed by op kind.
_COALESCED, _MEM_INSTRUCTIONS, _PLAIN_ISSUES = (
    np.array(
        [_KIND_CHARGES.get(kind, _NO_CHARGE)[i] for kind in range(_N_KINDS)],
        dtype=dtype,
    )
    for i, dtype in enumerate((bool, np.int64, np.float64))
)


@dataclass
class ScheduleOverrides:
    """Lock-schedule context a thread-per-transaction launch feeds
    into the replay.

    Without locks, a thread issues one op per round from round 1 and
    a warp stays schedulable until its op count runs out -- both
    derivable from the trace. With counter locks, rounds have spin
    gaps and the spin charges happen on rounds with no recorded event
    at all, so the lockstep scheduler
    (:mod:`repro.core.backends.lockstep`) hands the replay what it
    already computed: the thread placement, the true round horizon,
    each warp's last live round, and the spin-phase charge totals to
    merge into the stats (all exact integer-valued sums, so the merged
    totals are bit-identical to the interpreter's accumulation order).
    """

    #: The launch's :func:`~repro.gpu.simt.warp_layout`.
    layout: Tuple[Any, ...]
    #: Total rounds (= the interpreter's round counter at finish).
    rounds: int
    #: Per-warp last round with a live thread (visit simulation).
    warp_last_round: np.ndarray
    #: Per-SM spin/acquire charges accumulated by the scheduler.
    issue_cycles: np.ndarray
    atomic_cycles: np.ndarray
    mem_transactions: np.ndarray
    mem_bytes: np.ndarray
    #: Aggregate counters from the acquire phase.
    spin_iterations: int
    atomic_conflicts: int
    #: Divergence groups that left no trace event (all-spinning
    #: acquire groups), already netted against rounds where they were
    #: the only group (the scheduler's divergence correction).
    divergent_serializations: int


def _pack_sort(keys: Sequence[np.ndarray], bounds: Sequence[int]) -> np.ndarray:
    """``np.lexsort`` with the keys packed into one int64 argsort.

    ``keys`` are int64 arrays, most-significant first (the reverse of
    lexsort's convention), with ``0 <= keys[i] <= bounds[i]`` -- the
    caller knows how far a round, a warp id or a thread id can reach,
    so no key is scanned for its range. A single argsort over the
    packed key is several times faster than lexsort's one argsort per
    key, which matters in the replay hot path; bounds too wide to pack
    into 62 bits fall back to lexsort.
    """
    bits = [max(1, int(b).bit_length()) for b in bounds]
    if sum(bits) > 62:
        return np.lexsort(tuple(reversed(keys)))
    packed = keys[0].copy()
    for k, b in zip(keys[1:], bits[1:]):
        packed <<= b
        packed |= k
    return np.argsort(packed, kind="stable")


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Per column of the sorted key rows ``keys``: does it differ from
    the column before it (the first one always does)?"""
    fresh = np.empty(keys.shape[1], dtype=bool)
    fresh[:1] = True
    np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=fresh[1:])
    return fresh


#: The most recorded (thread, op) events a launch replays as a scalar
#: pass: up to here, grouping and charging Python tuples costs the host
#: no more than building and sorting one event matrix on any built-in
#: workload's mix; from 200 events, SmallBank's K-SET waves are cheaper
#: as a matrix (``scripts/replay_cost.py``; docs/ARCHITECTURE.md, "What
#: a launch costs the host").
NARROW_EVENTS = 192


def replay_kernel(
    recorder: TraceRecorder,
    store: WaveStore,
    engine: Any,
    outcomes: OutcomeColumns,
    schedule: Optional[ScheduleOverrides] = None,
) -> KernelReport:
    """Resolve a recorded wave into a KernelReport and apply the staged
    mutations in interpreter event order.

    The one owner of the path fork: a launch of at most
    :data:`NARROW_EVENTS` recorded events is grouped and charged as
    Python tuples (:func:`_charge_scalars`), a larger one as one event
    matrix (:func:`_charge_arrays`). Both return the same per-SM totals
    and apply the mutations through :func:`_apply_mutations`.
    """
    spec = engine.spec
    n_threads = recorder.n_threads
    stats = KernelStats(num_sms=spec.num_sms)
    stats.threads_launched = n_threads
    if schedule is not None:
        stats.rounds = schedule.rounds
        layout = schedule.layout
    else:
        stats.rounds = int(recorder.op_count.max()) if n_threads else 0
        layout = warp_layout(n_threads, engine.block_size, spec)
    stats.resident_warps = list(layout[2])
    stats.ops_executed = recorder.event_count()
    charge = (
        _charge_scalars if stats.ops_executed <= NARROW_EVENTS
        else _charge_arrays
    )
    issue, mem_tx, mem_instr, atomic = charge(
        recorder, store, engine, layout, stats, schedule
    )
    mem_bytes = [tx * spec.memory_transaction_bytes for tx in mem_tx]
    if schedule is not None:
        # Acquire/spin-phase charges the scheduler accumulated. Every
        # quantum is an integer-valued float (< 2**53), so adding the
        # per-SM totals is exact regardless of accumulation order.
        stats.divergent_serializations += schedule.divergent_serializations
        stats.spin_iterations += schedule.spin_iterations
        stats.atomic_conflicts += schedule.atomic_conflicts
        issue = list(map(add, issue, schedule.issue_cycles.tolist()))
        atomic = list(map(add, atomic, schedule.atomic_cycles.tolist()))
        mem_tx = list(map(add, mem_tx, schedule.mem_transactions.tolist()))
        mem_bytes = list(map(add, mem_bytes, schedule.mem_bytes.tolist()))
    # Python scalars throughout, so downstream arithmetic (and report
    # equality checks) see the same types as the interpreter.
    stats.issue_cycles = issue
    stats.mem_transactions = mem_tx
    stats.mem_instructions = mem_instr
    stats.mem_bytes = mem_bytes
    stats.atomic_cycles = atomic

    timing = engine.cost.resolve(stats)
    return KernelReport(stats=stats, timing=timing, outcomes=outcomes)


#: Per-SM ``(issue cycles, memory transactions, memory instructions,
#: atomic cycles)`` of a launch's trace, as Python lists.
_Totals = Tuple[List[float], List[int], List[int], List[float]]


def _charge_arrays(
    recorder: TraceRecorder,
    store: WaveStore,
    engine: Any,
    layout: Tuple[Any, ...],
    stats: KernelStats,
    schedule: Optional[ScheduleOverrides],
) -> _Totals:
    """Group and charge the trace as one ``(10, E)`` event matrix; sets
    the divergence and insert-conflict counts on ``stats``."""
    spec = engine.spec
    cost = engine.cost
    n_threads = recorder.n_threads
    bounds, _sm_warp_ids, _resident, warp_of, sm_of_warp = layout

    # ---- flatten the op shapes into the event matrix ------------------
    steps = recorder.flush()
    sizes = [len(step.lanes) for step in steps]
    offsets = [0, *accumulate(sizes)]
    E = offsets[-1]
    ev = np.empty((10, E), dtype=np.int64)
    deferred_steps: List[int] = []
    if steps:
        np.concatenate([step.rounds for step in steps], out=ev[_ROUND])
        np.concatenate([step.lanes for step in steps], out=ev[_THREAD])
        np.take(warp_of, ev[_THREAD], out=ev[_WARP])
        # Rows _BRANCH.._STEP: one repeat of the per-step table (a
        # step's per-lane branch tags are written over its 0 below).
        table = np.array(
            [
                [
                    0 if isinstance(step.branch, np.ndarray) else step.branch + 1
                    for step in steps
                ],
                [step.kind for step in steps],
                [step.amount for step in steps],
                [step.width for step in steps],
                range(len(steps)),
            ],
            dtype=np.int64,
        )
        ev[_BRANCH:_ADDR] = np.repeat(table, sizes, axis=1)
        ev[_ADDR:_THREAD] = -1
        for i, step in enumerate(steps):
            lo, hi = offsets[i], offsets[i + 1]
            if isinstance(step.branch, np.ndarray):
                np.add(step.branch, 1, out=ev[_BRANCH, lo:hi])
            if step.addr is None:
                if step.target is not None:
                    deferred_steps.append(i)
            elif step.addr.ndim == 2:
                ev[_ADDR:_THREAD, lo:hi] = step.addr.T
            else:
                ev[_ADDR, lo:hi] = step.addr
    # How far each sort key can reach (round, warp, branch, kind, thread).
    key_bounds = (
        stats.rounds, len(bounds), int(ev[_BRANCH].max()) if E else 0,
        _N_KINDS, n_threads,
    )

    # ---- interpreter event order (mutations, moving addresses) --------
    if deferred_steps or store.pending_inserts or store.pending_deletes:
        _resolve_order_and_addresses(
            recorder, steps, store, layout, ev, offsets, deferred_steps,
            key_bounds, schedule,
        )

    # ---- group events exactly like _step_warp -------------------------
    order = _pack_sort(
        (ev[_ROUND], ev[_WARP], ev[_BRANCH], ev[_KIND], ev[_THREAD]),
        key_bounds,
    )
    # One gather sorts every column; the unsorted matrix goes at once
    # (two event matrices alive is the replay's memory high-water mark).
    se = ev[:_THREAD, order]
    del ev
    fresh = _group_starts(se[: _KIND + 1])
    g_start = np.flatnonzero(fresh)
    n_groups = len(g_start)
    g_end = np.empty_like(g_start)
    g_end[:-1] = g_start[1:]
    g_end[-1:] = E
    group_of_event = np.cumsum(fresh)
    group_of_event -= 1
    g = se[: _KIND + 1, g_start]
    g_kind = g[_KIND]
    g_sm = sm_of_warp[g[_WARP]]

    # Divergence: groups per (round, warp) beyond the first serialise.
    stats.divergent_serializations = n_groups - int(
        np.count_nonzero(_group_starts(g[: _WARP + 1]))
    )

    # Per-group charges, summed by SM at the end.
    seg = spec.memory_transaction_bytes
    plain = cost.issue_plain()
    g_issue = _PLAIN_ISSUES[g_kind] * plain
    g_instr = _MEM_INSTRUCTIONS[g_kind]
    atomic_cycles = np.zeros(spec.num_sms, dtype=np.float64)

    # Coalesced accesses of every kind in one pass: each member's
    # address, plus a probe's second word, at the group's *last* width.
    es = np.flatnonzero(_COALESCED[g_kind][group_of_event])
    gids = group_of_event[es]
    addrs = se[_ADDR, es]
    probes = np.flatnonzero(se[_KIND, es] == op_ir.INDEX_PROBE)
    if len(probes):
        addrs = np.concatenate([addrs, se[_ADDR2, es[probes]]])
        gids = np.concatenate([gids, gids[probes]])
    g_tx = cost.coalesce_groups(
        gids, addrs, se[_WIDTH, g_end - 1][gids], n_groups
    )

    # Undo-log flush: a WRITE group whose members journalled
    # before-images appends them consecutively in device memory --
    # one extra memory instruction per group, sized by the member
    # count (16 B per record, Appendix D).
    undo_steps = [
        i for i, step in enumerate(steps)
        if step.undo is not None and step.undo.any()
    ]
    if undo_steps:
        ev_undo = np.zeros(E, dtype=np.int64)
        for i in undo_steps:
            ev_undo[offsets[i] : offsets[i + 1]] = steps[i].undo
        counts = np.add.reduceat(ev_undo[order], g_start)
        hot = np.flatnonzero((counts > 0) & (g_kind == op_ir.WRITE))
        g_tx[hot] += (counts[hot] * 16 + seg - 1) // seg
        g_instr[hot] += 1
        g_issue[hot] += plain

    # Compute / SFU: one issue charge per group, max amount of members.
    for kind, fn in (
        (op_ir.COMPUTE, cost.issue_compute),
        (op_ir.SFU_COMPUTE, cost.issue_sfu),
    ):
        gs = np.flatnonzero(g_kind == kind)
        if len(gs):
            amax = np.maximum.reduceat(se[_AMOUNT], g_start)[gs]
            g_issue[gs] = [fn(amount) for amount in amax.tolist()]

    # Inserts: per-event transaction charges from the row width of
    # each event's step table (widths cached per table) and the
    # buffer-tail atomicAdd serialization per (group, table).
    if (g_kind == op_ir.INSERT_ROW).any():
        width_cache: Dict[str, int] = {}
        step_tids = np.full(len(steps), -1, dtype=np.int64)
        tid_of: Dict[str, int] = {}
        step_ntx = np.zeros(len(steps), dtype=np.int64)
        for i, step in enumerate(steps):
            if step.kind != op_ir.INSERT_ROW:
                continue
            width = width_cache.get(step.table)
            if width is None:
                width = width_cache[step.table] = store.adapter.row_width(
                    step.table
                )
            step_ntx[i] = (width + seg - 1) // seg
            step_tids[i] = tid_of.setdefault(step.table, len(tid_of))
        es = np.flatnonzero(se[_KIND] == op_ir.INSERT_ROW)
        e_step = se[_STEP, es]
        np.add.at(g_tx, group_of_event[es], step_ntx[e_step])
        # (group, table) -> member count; >1 serialises the atomicAdd.
        pair = group_of_event[es] * len(tid_of) + step_tids[e_step]
        pairs, counts = np.unique(pair, return_counts=True)
        for p, count in zip(pairs[counts > 1], counts[counts > 1]):
            sm = int(g_sm[int(p) // len(tid_of)])
            atomic_cycles[sm] += cost.atomic_serialization(int(count))
            stats.atomic_conflicts += int(count) - 1
    # Deletes: one transaction per member.
    delete_gs = np.flatnonzero(g_kind == op_ir.DELETE_ROW)
    g_tx[delete_gs] = g_end[delete_gs] - g_start[delete_gs]

    # Per-SM totals of the group columns. Every charge quantum is an
    # integer-valued number below 2**53, so the float64 sums are exact
    # whatever the accumulation order.
    issue, mem_tx, mem_instr = (
        np.bincount(g_sm, weights=column, minlength=spec.num_sms)
        for column in (g_issue, g_tx, g_instr)
    )
    return (
        issue.astype(np.float64, copy=False).tolist(),  # float if E == 0
        mem_tx.astype(np.int64).tolist(),
        mem_instr.astype(np.int64).tolist(),
        atomic_cycles.tolist(),
    )


def _charge_scalars(
    recorder: TraceRecorder,
    store: WaveStore,
    engine: Any,
    layout: Tuple[Any, ...],
    stats: KernelStats,
    schedule: Optional[ScheduleOverrides],
) -> _Totals:
    """:func:`_charge_arrays` as one pass over Python tuples.

    Each event is ``(round, warp, branch + 1, kind, thread, record,
    index, address)`` over :meth:`TraceRecorder.plain_records`. One sort
    orders them like the event matrix (``(record, index)`` is the
    flattened position, so ties keep the stable sort's order and the
    address is never compared), and each ``(round, warp, branch,
    kind)`` run is one group, charged from :data:`_KIND_CHARGES` and
    ``cost.coalesce``.
    """
    cost = engine.cost
    num_sms = engine.spec.num_sms
    seg = engine.spec.memory_transaction_bytes
    _bounds, _sm_warp_ids, _resident, warp_of, sm_of_warp = layout
    records = recorder.plain_records()
    warp_at = warp_of.tolist().__getitem__
    events: List[Tuple[Any, ...]] = []
    for r, rec in enumerate(records):
        branch, lanes = rec[1], rec[6]
        events += zip(
            rec[7],
            map(warp_at, lanes),
            [tag + 1 for tag in branch] if type(branch) is list
            else repeat(branch + 1),
            repeat(rec[0]),
            lanes,
            repeat(r),
            count(),
            repeat(None) if rec[8] is None else rec[8],
        )
    events.sort()
    sm_of = sm_of_warp.tolist()
    if (
        store.pending_inserts or store.pending_deletes
        or any(rec[5] is not None for rec in records)
    ):
        events = _order_scalars(
            recorder, store, layout, records, events, sm_of, schedule
        )

    plain = cost.issue_plain()
    coalesce = cost.coalesce
    issue = [0.0] * num_sms
    mem_tx = [0] * num_sms
    mem_instr = [0] * num_sms
    atomic = [0.0] * num_sms
    row_ntx: Dict[str, int] = {}
    n_groups = n_heads = 0
    head_round = head_warp = -1
    for (rnd, warp, _tag, kind), group in groupby(events, _GROUP_KEY):
        n_groups += 1
        if rnd != head_round or warp != head_warp:
            head_round, head_warp = rnd, warp
            n_heads += 1
        sm = sm_of[warp]
        coalesced, g_instr, issues = _KIND_CHARGES.get(kind, _NO_CHARGE)
        g_issue = issues * plain
        g_tx = 0
        # A group's members are read only where a charge depends on
        # them (groupby skips the rest).
        if coalesced:
            # Each member's address (both words of a probe), at the
            # group's *last* width.
            members = list(group)
            width = records[members[-1][5]][3]
            if kind == op_ir.INDEX_PROBE:
                g_tx = coalesce([a for e in members for a in e[7]], width)
            else:
                g_tx = coalesce([e[7] for e in members], width)
            if kind == op_ir.WRITE:
                # The undo-log flush of the members that journalled.
                journalled = 0
                for e in members:
                    flags = records[e[5]][10]
                    if flags is not None and flags[e[6]]:
                        journalled += 1
                if journalled:
                    g_tx += (journalled * 16 + seg - 1) // seg
                    g_instr += 1
                    g_issue += plain
        elif kind == op_ir.COMPUTE:
            g_issue = cost.issue_compute(max(records[e[5]][2] for e in group))
        elif kind == op_ir.SFU_COMPUTE:
            g_issue = cost.issue_sfu(max(records[e[5]][2] for e in group))
        elif kind == op_ir.INSERT_ROW:
            per_table: Dict[str, int] = {}
            for e in group:
                table = records[e[5]][4]
                ntx = row_ntx.get(table)
                if ntx is None:
                    width = store.adapter.row_width(table)
                    ntx = row_ntx[table] = (width + seg - 1) // seg
                g_tx += ntx
                per_table[table] = per_table.get(table, 0) + 1
            for n in per_table.values():
                if n > 1:
                    atomic[sm] += cost.atomic_serialization(n)
                    stats.atomic_conflicts += n - 1
        elif kind == op_ir.DELETE_ROW:
            g_tx = sum(1 for _e in group)
        issue[sm] += g_issue
        mem_tx[sm] += g_tx
        mem_instr[sm] += g_instr
    stats.divergent_serializations = n_groups - n_heads
    return issue, mem_tx, mem_instr, atomic


#: A scalar event's divergence-group key: ``(round, warp, branch + 1,
#: kind)``.
_GROUP_KEY = itemgetter(0, 1, 2, 3)


def _order_scalars(
    recorder: TraceRecorder,
    store: WaveStore,
    layout: Tuple[Any, ...],
    records: List[Tuple[Any, ...]],
    events: List[Tuple[Any, ...]],
    sm_of: List[int],
    schedule: Optional[ScheduleOverrides],
) -> List[Tuple[Any, ...]]:
    """:func:`_resolve_order_and_addresses` over the sorted scalar
    ``events``: order the order-sensitive subset by ``(round, SM, visit
    rank, group's first thread, thread)``, apply the mutations in it,
    and return ``events`` with each deferred address resolved."""
    bounds, sm_warp_ids = layout[0], layout[1]
    deferred = [rec[5] is not None for rec in records]
    mutating = (op_ir.INSERT_ROW, op_ir.DELETE_ROW)
    # Whole divergence groups of the events PART cancels follow.
    cancels = store.pending_cancels
    anchored = {e[:4] for e in events if (e[4], e[0]) in cancels}
    sub = [
        e for e in events
        if e[3] in mutating or deferred[e[5]] or e[:4] in anchored
    ]
    # A group's first subset thread: ``events`` is sorted by thread
    # within each group, so its first subset member.
    first: Dict[Tuple[Any, ...], int] = {}
    for e in sub:
        first.setdefault(e[:4], e[4])
    needed = sorted({e[0] for e in sub})
    visits = _warp_visit_ranks(
        sm_warp_ids,
        _warp_last_rounds(recorder, bounds, schedule),
        np.asarray(needed, dtype=np.int64),
    ).tolist()
    at = dict(zip(needed, visits))
    sub.sort(
        key=lambda e: (
            e[0], sm_of[e[1]], at[e[0]][e[1]], first[e[:4]], e[4], e[5], e[6]
        )
    )
    base_rows = _apply_mutations(
        store,
        [
            (e[3], records[e[5]][9][e[6]], records[e[5]][4], (e[4], e[0]))
            if e[3] in mutating else (e[3], -1, "", (e[4], e[0]))
            for e in sub if e[3] in mutating or (e[4], e[0]) in cancels
        ],
    )
    if not any(deferred):
        return events
    # Deferred addresses, at the row counts in effect at each event.
    inserted = dict.fromkeys(base_rows, 0)
    resolved: Dict[Tuple[int, int], int] = {}
    for e in sub:
        rec = records[e[5]]
        if e[3] == op_ir.INSERT_ROW:
            if rec[4] in inserted:
                inserted[rec[4]] += 1
        elif deferred[e[5]]:
            table, column = rec[5]
            addr, _width = store.addressing(table).addresses(
                column, store.row_of(rec[11][e[6]]),
                n_rows=base_rows[table] + inserted[table],
            )
            resolved[e[5], e[6]] = int(addr)
    return [
        e[:7] + (resolved[e[5], e[6]],) if deferred[e[5]] else e
        for e in events
    ]


#: "No death ahead": the round bound of a list with no live warp left.
_NEVER = np.iinfo(np.int64).max


def _sweep(live: List[int], warp_last: np.ndarray, r: int) -> int:
    """Bring one SM's live-warp list ``live`` (in place) to round ``r``.

    The interpreter sweeps each SM's live-warp list every round,
    replacing a warp first encountered with no live thread by the
    list's last warp (without advancing the index, so the swapped-in
    warp is examined next). Replaying only the *death rounds* up to
    ``r`` in ascending order -- each one its own left-to-right sweep --
    leaves the list in the identical state, because sweeps of rounds
    with no newly-dead warps remove nothing; and enumerating the
    post-sweep list assigns every surviving warp the same visit rank
    the interpreter hands out mid-sweep. (Removal order matters: two
    warps dying in the same round are removed in *scan position*
    order, which is not warp-id order once earlier deaths have permuted
    the list.)

    ``warp_last`` is each warp's last round with a live thread; a warp
    is swap-removed by the sweep of round ``warp_last + 1``. Returns the
    last round through which the list stays as it is now: the earliest
    last round of its survivors (:data:`_NEVER` once it is empty).
    """
    last_of = dict(zip(live, warp_last[live].tolist()))
    for d in sorted({last for last in last_of.values() if last < r}):
        i = 0
        while i < len(live):
            if last_of[live[i]] <= d:
                live[i] = live[-1]
                live.pop()
            else:
                i += 1
    return min(map(last_of.__getitem__, live), default=_NEVER)


class VisitTracker:
    """Per-SM warp visit ranks under the scheduler's swap-removal
    (:func:`_sweep`), for a schedule that learns deaths as it runs.

    Bodies run the moment their locks are granted, so a warp's last
    round is known before the schedule reaches it: the lock scheduler
    announces it with :meth:`retire`, which writes ``warp_last``. Each
    SM's ranks are cached until that SM's next death round, so a query
    between deaths is a lookup and a launch that never asks (no lock
    gates) never pays. Rounds must be asked in ascending order per SM,
    and a death announced before its round is asked.
    """

    def __init__(
        self, sm_warp_ids: Sequence[Sequence[int]], warp_last: np.ndarray
    ) -> None:
        self._sm_warp_ids = sm_warp_ids
        self._warp_last = warp_last
        #: sm -> its live-warp list, copied when first asked about.
        self._live: Dict[int, List[int]] = {}
        #: sm -> its cached ``{warp: visit rank}``, valid through round
        #: ``_stable[sm]`` (0 = nothing cached; rounds are 1-based).
        self._ranks: Dict[int, Dict[int, int]] = {}
        self._stable = np.zeros(len(sm_warp_ids), dtype=np.int64)

    def retire(
        self,
        warps: np.ndarray,
        last_rounds: np.ndarray,
        sm_of_warp: np.ndarray,
    ) -> None:
        """Announce that ``warps`` have no live thread after
        ``last_rounds`` (aligned); ``sm_of_warp`` is the launch
        layout's warp -> SM map. An SM's cached ranks expire at its
        earliest announced death."""
        self._warp_last[warps] = last_rounds
        if self._ranks:  # a wave never asks, so has nothing to expire
            np.minimum.at(self._stable, sm_of_warp[warps], last_rounds)

    def ranks_at(self, sm: int, r: int) -> Dict[int, int]:
        """``{warp: visit rank}`` of ``sm`` at round ``r`` (1-based),
        in visit order; a warp already removed is absent. The mapping
        is shared with later calls: read it, do not change it."""
        if r <= self._stable[sm]:
            return self._ranks[sm]
        live = self._live.get(sm)
        if live is None:
            live = self._live[sm] = list(self._sm_warp_ids[sm])
        self._stable[sm] = _sweep(live, self._warp_last, r)
        ranks = self._ranks[sm] = {w: i for i, w in enumerate(live)}
        return ranks


def _warp_visit_ranks(
    sm_warp_ids: List[List[int]],
    warp_last: np.ndarray,
    needed_rounds: np.ndarray,
) -> np.ndarray:
    """:class:`VisitTracker` ranks of every warp, for ``needed_rounds``.

    Returns ``V[i, warp]`` for ``needed_rounds[i]`` (ascending,
    1-based rounds; -1 = not visited). Sparse on purpose: a TPL kernel
    can span millions of spin rounds, but only rounds carrying an
    order-sensitive event need ranks -- a dense ``(rounds, warps)``
    matrix would dominate memory at benchmark scale. Ranks change only
    at death rounds, so each SM's list is swept once per death round
    and every needed round up to its next one is filled by one slice.
    """
    visits = np.full((len(needed_rounds), len(warp_last)), -1, dtype=np.int64)
    for ids in sm_warp_ids:
        live = list(ids)
        lo = 0
        while live and lo < len(needed_rounds):
            stable = _sweep(live, warp_last, int(needed_rounds[lo]))
            hi = int(np.searchsorted(needed_rounds, stable, side="right"))
            visits[lo:hi, live] = np.arange(len(live))
            lo = hi
    return visits


def _resolve_order_and_addresses(
    recorder: TraceRecorder,
    steps: List[Step],
    store: WaveStore,
    layout: Tuple[Any, ...],
    ev: np.ndarray,
    offsets: List[int],
    deferred_steps: List[int],
    key_bounds: Tuple[int, ...],
    schedule: Optional[ScheduleOverrides] = None,
) -> None:
    """Compute the interpreter event order over the *order-sensitive
    subset* of events -- staged inserts/deletes, deferred-address
    reads/writes and the divergence groups of the events a PART cancel
    follows -- then (a) apply the mutations in it and (b) resolve
    the deferred device addresses against the row counts in effect at
    each event, into the ``_ADDR`` row of the (unsorted) event matrix
    ``ev``.

    Restricting the ordering to the subset is sound because every
    divergence group that contains a subset event consists entirely of
    subset events (insert/delete groups are homogeneous in kind; a
    deferred step's whole lane set is deferred; an anchor brings its
    whole group), so relative order within the subset never depends on
    excluded events.
    """
    bounds, sm_warp_ids, _resident, _warp_of, sm_of_warp = layout
    E = ev.shape[1]
    ev_kind = ev[_KIND]
    ev_step = ev[_STEP]
    is_mutation = (ev_kind == op_ir.INSERT_ROW) | (ev_kind == op_ir.DELETE_ROW)
    # The events PART cancels follow, and their whole divergence groups.
    is_anchor = np.zeros(E, dtype=bool)
    for thread, round_ in store.pending_cancels:
        is_anchor |= (ev[_THREAD] == thread) & (ev[_ROUND] == round_)
    in_group = np.zeros(E, dtype=bool)
    for a in np.flatnonzero(is_anchor).tolist():
        in_group |= (ev[: _KIND + 1] == ev[: _KIND + 1, a : a + 1]).all(axis=0)
    sub_mask = is_mutation | in_group
    if deferred_steps:
        step_deferred = np.zeros(len(steps), dtype=bool)
        step_deferred[deferred_steps] = True
        sub_mask |= step_deferred[ev_step]
    sub = np.flatnonzero(sub_mask)
    # Subset columns, in the event matrix's row order.
    keys = ev[: _KIND + 1, sub]
    s_round, s_warp, s_branch, s_kind = keys
    s_thread = ev[_THREAD, sub]
    S = len(sub)

    needed = np.unique(s_round)
    visits = _warp_visit_ranks(
        sm_warp_ids, _warp_last_rounds(recorder, bounds, schedule), needed
    )
    s_visit = visits[np.searchsorted(needed, s_round), s_warp]
    s_sm = sm_of_warp[s_warp]
    # First-occurrence order of each (round, warp, branch, kind) group
    # = the minimum member thread id (members iterate in warp order).
    order_g = _pack_sort(
        (s_round, s_warp, s_branch, s_kind, s_thread), key_bounds
    )
    fresh = _group_starts(keys[:, order_g])
    group_of_sorted = np.cumsum(fresh) - 1
    g_min_thread = np.minimum.reduceat(
        s_thread[order_g], np.flatnonzero(fresh)
    ) if S else np.zeros(0, dtype=np.int64)
    s_gfirst = np.empty(S, dtype=np.int64)
    s_gfirst[order_g] = g_min_thread[group_of_sorted]
    n_threads = key_bounds[-1]
    sub_order = _pack_sort(
        (s_round, s_sm, s_visit, s_gfirst, s_thread),
        (key_bounds[0], len(sm_warp_ids), len(bounds), n_threads, n_threads),
    )
    #: Event index -> rank within the ordered subset (-1 elsewhere).
    pos = np.full(E, -1, dtype=np.int64)
    pos[sub[sub_order]] = np.arange(S)

    # Apply staged mutations (and PART's cancels) in event order.
    mut_events = np.flatnonzero(is_mutation | is_anchor)
    mut_events = mut_events[np.argsort(pos[mut_events])]
    # Insert handles / delete encoded rows of the mutating events.
    ev_payload = np.full(E, -1, dtype=np.int64)
    for i, step in enumerate(steps):
        if step.payload is not None:
            ev_payload[offsets[i] : offsets[i + 1]] = step.payload
    base_rows = _apply_mutations(
        store,
        list(
            zip(
                ev_kind[mut_events].tolist(),
                ev_payload[mut_events].tolist(),
                [steps[i].table for i in ev_step[mut_events].tolist()],
                zip(
                    ev[_THREAD, mut_events].tolist(),
                    ev[_ROUND, mut_events].tolist(),
                ),
            )
        ),
    )
    # Inserts-before prefix per mutating table (by subset rank), for
    # address resolution on tables whose row count moves mid-kernel.
    inserts_before: Dict[str, np.ndarray] = {}
    if deferred_steps:
        tables = {table: t for t, table in enumerate(store.mutating_tables)}
        # Per step: the mutating table it inserts into, else -1.
        step_table = np.array(
            [
                tables.get(step.table, -1)
                if step.kind == op_ir.INSERT_ROW else -1
                for step in steps
            ],
            dtype=np.int64,
        )
        ordered = step_table[ev_step[sub]][sub_order]
        for table, t in tables.items():
            before = np.zeros(S, dtype=np.int64)
            if S > 1:
                np.cumsum(ordered[:-1] == t, out=before[1:])
            inserts_before[table] = before  # indexed by subset rank

    # Resolve deferred addresses with the per-event row counts.
    for i in deferred_steps:
        (table, column), rows_enc = steps[i].target, steps[i].rows
        lo, hi = offsets[i], offsets[i + 1]
        n_at = base_rows[table] + inserts_before[table][pos[lo:hi]]
        addr, _width = store.addressing(table).addresses(
            column, store.rows_of(rows_enc), n_rows=n_at
        )
        ev[_ADDR, lo:hi] = addr


def _warp_last_rounds(
    recorder: TraceRecorder,
    bounds: Sequence[Tuple[int, int]],
    schedule: Optional[ScheduleOverrides],
) -> np.ndarray:
    """Each warp's last round with a live thread: the lock schedule's,
    or -- conflict-free -- its longest thread's op count."""
    if schedule is not None:
        return schedule.warp_last_round
    op_count = recorder.op_count
    return np.array(
        [op_count[lo:hi].max() if hi > lo else 0 for lo, hi in bounds],
        dtype=np.int64,
    )


def _apply_mutations(
    store: WaveStore,
    mutations: Sequence[Tuple[int, int, str, Tuple[int, int]]],
) -> Dict[str, int]:
    """Apply a launch's staged mutations to the real store.

    ``mutations`` is ``(kind, insert handle + HANDLE_BASE or encoded
    delete row, table, (thread, round))`` per mutating event, and per
    event a PART cancel follows (``store.pending_cancels``, rolled back
    right after it), in interpreter event order.
    Publishes ``handle -> physical row id`` as ``store.handle_row`` --
    undo logs and result values captured during the kernel name staged
    rows by handle, and ``store.row_of`` decodes them to these ids --,
    then applies the handle writes.
    Returns each mutating table's row count as the launch found it.
    """
    adapter = store.adapter
    base_rows = {
        t: store.addressing(t).n_rows for t in store.mutating_tables
    }
    handle_row: Dict[int, int] = {}
    store.handle_row = handle_row
    predicted: Dict[str, int] = dict(base_rows)
    for kind, payload, _table, _event in mutations:
        if kind == op_ir.INSERT_ROW:
            handle = payload - HANDLE_BASE
            table, _values = store.pending_inserts[handle]
            handle_row[handle] = predicted[table]
            predicted[table] += 1
        # Deletes resolve their target after every handle is known.

    # Consecutive inserts between deletes batch into one insert_bulk
    # per table (the paper's post-kernel batched update). Per-table
    # insert order -- the only order physical row ids and the redo
    # stream depend on -- is the event order, and the flush before
    # each delete keeps insert-before-delete ordering for rows staged
    # and deleted in the same launch.
    run_tables: List[str] = []
    run_values: Dict[str, List[Tuple[Any, ...]]] = {}
    run_rows: Dict[str, List[int]] = {}

    def flush_inserts() -> None:
        for table in run_tables:
            rows = adapter.insert_bulk(table, run_values[table])
            if rows != run_rows[table]:  # pragma: no cover - invariant
                raise RuntimeError(
                    "vectorized insert order diverged from prediction"
                )
        run_tables.clear()
        run_values.clear()
        run_rows.clear()

    cancels = store.pending_cancels
    for kind, payload, table, event in mutations:
        if kind == op_ir.INSERT_ROW:
            handle = payload - HANDLE_BASE
            table, values = store.pending_inserts[handle]
            if table not in run_values:
                run_tables.append(table)
                run_values[table] = []
                run_rows[table] = []
            run_values[table].append(values)
            run_rows[table].append(handle_row[handle])
        elif kind == op_ir.DELETE_ROW:
            flush_inserts()
            adapter.delete(table, store.row_of(payload))
        if event in cancels:
            flush_inserts()
            # Stored in rollback order; rollback() reverses op order.
            tx_logging.rollback(adapter, store.logged(cancels[event][::-1]))
    flush_inserts()

    # Writes to rows staged by a same-launch insert, now that the
    # rows exist. Staging order is per-cell program order (a staged
    # row is only ever written by the lane whose partition owns it),
    # and the adapter call keeps the redo stream's per-cell order:
    # insert with original values first, then the write.
    for table, column, handle, value in store.pending_handle_writes:
        adapter.write(table, column, handle_row[handle], value)
    return base_rows
