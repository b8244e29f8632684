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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu import ops as op_ir
from repro.gpu.costmodel import KernelStats
from repro.gpu.simt import KernelReport, ThreadOutcome, warp_layout

from repro.core.backends.wave import HANDLE_BASE, TraceRecorder, WaveStore

#: Op kinds whose single-group issue charge is one plain instruction.
_PLAIN_ISSUE_KINDS = (
    op_ir.SET_BRANCH,
    op_ir.ABORT,
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


def _pack_sort(*keys: np.ndarray) -> np.ndarray:
    """``np.lexsort`` with the keys packed into one int64 argsort.

    ``keys`` are given most-significant first (the reverse of
    lexsort's convention). All keys must be non-negative except the
    last-resort fallback handles anything. A single argsort over the
    packed key is several times faster than lexsort's one argsort per
    key, which matters in the replay hot path.
    """
    bits = []
    for k in keys:
        hi = int(k.max()) if len(k) else 0
        lo = int(k.min()) if len(k) else 0
        if lo < 0:
            return np.lexsort(tuple(reversed(keys)))
        bits.append(max(1, hi.bit_length()))
    if sum(bits) > 62:
        return np.lexsort(tuple(reversed(keys)))
    packed = np.zeros(len(keys[0]), dtype=np.int64)
    for k, b in zip(keys, bits):
        packed = (packed << b) | k.astype(np.int64)
    return np.argsort(packed, kind="stable")


def replay_kernel(
    recorder: TraceRecorder,
    store: WaveStore,
    engine: Any,
    outcomes: List[ThreadOutcome],
    schedule: Optional[ScheduleOverrides] = None,
) -> KernelReport:
    """Resolve a recorded wave into a KernelReport and apply the staged
    mutations in interpreter event order."""
    recorder.flush_scalar()
    spec = engine.spec
    cost = engine.cost
    n_threads = recorder.n_threads
    stats = KernelStats(num_sms=spec.num_sms)
    stats.threads_launched = n_threads
    stats.threads_aborted = sum(1 for o in outcomes if not o.committed)
    if schedule is not None:
        stats.rounds = schedule.rounds
        layout = schedule.layout
    else:
        stats.rounds = int(recorder.op_count.max()) if n_threads else 0
        layout = warp_layout(n_threads, engine.block_size, spec)
    bounds, sm_warp_ids, resident, warp_of, sm_of_warp = layout
    for sm in range(spec.num_sms):
        stats.resident_warps[sm] = resident[sm]

    # ---- flatten steps into event arrays ------------------------------
    steps = recorder.steps
    sizes = [len(s.lanes) for s in steps]
    E = int(sum(sizes))
    stats.ops_executed = E
    offsets = np.zeros(len(steps) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    # Per-step-constant fields flatten with one repeat each; per-lane
    # fields with one concatenate each -- no per-step python slicing.
    ev_thread = (
        np.concatenate([s.lanes for s in steps])
        if steps else np.zeros(0, dtype=np.int64)
    )
    ev_round = (
        np.concatenate([s.rounds for s in steps])
        if steps else np.zeros(0, dtype=np.int64)
    )
    ev_kind = np.repeat(
        np.fromiter((s.kind for s in steps), np.int64, len(steps)), sizes_arr
    )
    ev_branch = np.concatenate(
        [
            s.branch
            if isinstance(s.branch, np.ndarray)
            else np.full(len(s.lanes), s.branch, dtype=np.int64)
            for s in steps
        ]
    ) if steps else np.zeros(0, dtype=np.int64)
    ev_amount = np.repeat(
        np.fromiter((s.amount for s in steps), np.int64, len(steps)),
        sizes_arr,
    )
    ev_width = np.repeat(
        np.fromiter((s.width for s in steps), np.int64, len(steps)), sizes_arr
    )
    ev_step = np.repeat(np.arange(len(steps), dtype=np.int64), sizes_arr)
    ev_addr = np.full(E, -1, dtype=np.int64)
    ev_addr2 = np.full(E, -1, dtype=np.int64)
    ev_payload = np.full(E, -1, dtype=np.int64)
    deferred_steps: List[int] = []
    for i, step in enumerate(steps):
        if step.addr is not None:
            lo, hi = offsets[i], offsets[i + 1]
            if step.addr.ndim == 2:
                ev_addr[lo:hi] = step.addr[:, 0]
                ev_addr2[lo:hi] = step.addr[:, 1]
            else:
                ev_addr[lo:hi] = step.addr
        elif step.deferred is not None:
            deferred_steps.append(i)
        if step.payload is not None:
            lo, hi = offsets[i], offsets[i + 1]
            ev_payload[lo:hi] = step.payload
    ev_warp = warp_of[ev_thread]
    ev_sm = sm_of_warp[ev_warp]

    # ---- interpreter event order (mutations, moving addresses) --------
    need_order = bool(
        deferred_steps or store.pending_inserts or store.pending_deletes
    )
    if need_order:
        _resolve_order_and_addresses(
            recorder, store, bounds, sm_warp_ids, sm_of_warp,
            ev_thread, ev_round, ev_kind, ev_branch, ev_warp,
            ev_addr, ev_width, ev_payload, ev_step, offsets, deferred_steps,
            schedule=schedule,
        )

    # ---- group events exactly like _step_warp -------------------------
    order = _pack_sort(ev_round, ev_warp, ev_branch + 1, ev_kind, ev_thread)
    s_round = ev_round[order]
    s_warp = ev_warp[order]
    s_branch = ev_branch[order]
    s_kind = ev_kind[order]
    s_sm = ev_sm[order]
    s_amount = ev_amount[order]
    s_width = ev_width[order]
    s_addr = ev_addr[order]
    s_addr2 = ev_addr2[order]
    s_step = ev_step[order]
    fresh = np.ones(E, dtype=bool)
    if E > 1:
        fresh[1:] = (
            (s_round[1:] != s_round[:-1])
            | (s_warp[1:] != s_warp[:-1])
            | (s_branch[1:] != s_branch[:-1])
            | (s_kind[1:] != s_kind[:-1])
        )
    g_start = np.flatnonzero(fresh)
    n_groups = len(g_start)
    g_end = np.append(g_start[1:], E)
    g_kind = s_kind[g_start]
    g_sm = s_sm[g_start]
    g_last = g_end - 1
    group_of_event = np.cumsum(fresh) - 1

    # Divergence: groups per (round, warp) beyond the first serialise.
    wr_fresh = np.ones(n_groups, dtype=bool)
    if n_groups > 1:
        wr_fresh[1:] = (
            (s_round[g_start][1:] != s_round[g_start][:-1])
            | (s_warp[g_start][1:] != s_warp[g_start][:-1])
        )
    wr_sizes = np.diff(np.append(np.flatnonzero(wr_fresh), n_groups))
    stats.divergent_serializations = int(np.sum(wr_sizes - 1))
    if schedule is not None:
        stats.divergent_serializations += schedule.divergent_serializations
        stats.spin_iterations += schedule.spin_iterations
        stats.atomic_conflicts += schedule.atomic_conflicts

    issue = np.zeros(spec.num_sms, dtype=np.float64)
    mem_tx = np.zeros(spec.num_sms, dtype=np.int64)
    mem_instr = np.zeros(spec.num_sms, dtype=np.int64)
    mem_bytes = np.zeros(spec.num_sms, dtype=np.int64)
    atomic_cycles = np.zeros(spec.num_sms, dtype=np.float64)
    seg = spec.memory_transaction_bytes
    plain = cost.issue_plain()

    def charge_coalesced(kinds: Tuple[int, ...], probe: bool) -> None:
        g_mask = np.isin(g_kind, kinds)
        gs = np.flatnonzero(g_mask)
        if len(gs) == 0:
            return
        e_mask = np.isin(s_kind, kinds)
        es = np.flatnonzero(e_mask)
        # Dense sub-group ids for the selected events.
        sub_of = np.full(n_groups, -1, dtype=np.int64)
        sub_of[gs] = np.arange(len(gs))
        sub_idx = sub_of[group_of_event[es]]
        widths = s_width[g_last][gs][sub_idx]  # the group's *last* width
        addrs = s_addr[es]
        if probe:
            addrs = np.concatenate([addrs, s_addr2[es]])
            sub_idx = np.concatenate([sub_idx, sub_idx])
            widths = np.concatenate([widths, widths])
        ntx = cost.coalesce_groups(sub_idx, addrs, widths, len(gs))
        sms = g_sm[gs]
        np.add.at(mem_tx, sms, ntx)
        np.add.at(mem_bytes, sms, ntx * seg)
        np.add.at(mem_instr, sms, 1)
        np.add.at(issue, sms, (2 * plain) if probe else plain)

    # LOCK_RELEASE groups charge exactly like a READ/WRITE group: the
    # interpreter coalesces the released lock words and issues one
    # plain instruction per group (LOCK_ACQUIRE pass events carry no
    # charge here -- the acquire-round charges, which depend on
    # blocked spinners absent from the trace, arrive via ``schedule``).
    charge_coalesced(
        (op_ir.READ, op_ir.WRITE, op_ir.LOCK_RELEASE), probe=False
    )
    charge_coalesced((op_ir.INDEX_PROBE,), probe=True)

    # Undo-log flush: a WRITE group whose members journalled
    # before-images appends them consecutively in device memory --
    # one extra memory instruction per group, sized by the member
    # count (16 B per record, Appendix D).
    undo_flags = [s.undo is not None and s.undo.any() for s in steps]
    if any(undo_flags):
        ev_undo = np.concatenate(
            [
                s.undo
                if s.undo is not None
                else np.zeros(len(s.lanes), dtype=bool)
                for s in steps
            ]
        )[order]
        write_gs = np.flatnonzero(g_kind == op_ir.WRITE)
        counts = np.add.reduceat(
            ev_undo.astype(np.int64), g_start
        )[write_gs]
        hot = counts > 0
        if hot.any():
            gs_hot = write_gs[hot]
            ntx = (counts[hot] * 16 + seg - 1) // seg
            sms = g_sm[gs_hot]
            np.add.at(mem_tx, sms, ntx)
            np.add.at(mem_bytes, sms, ntx * seg)
            np.add.at(mem_instr, sms, 1)
            np.add.at(issue, sms, plain)

    # Compute / SFU: one issue charge per group, max amount of members.
    for kind, fn in (
        (op_ir.COMPUTE, cost.issue_compute),
        (op_ir.SFU_COMPUTE, cost.issue_sfu),
    ):
        gs = np.flatnonzero(g_kind == kind)
        if len(gs) == 0:
            continue
        amax = np.maximum.reduceat(s_amount, g_start)[gs]
        for g, amount in zip(gs, amax):
            issue[g_sm[g]] += fn(int(amount))

    # Plain-issue-only kinds.
    gs = np.flatnonzero(np.isin(g_kind, _PLAIN_ISSUE_KINDS))
    np.add.at(issue, g_sm[gs], plain)

    # Inserts: per-event transaction charges from the row width of
    # each event's step table (widths cached per table), per-group
    # instruction charges, and the buffer-tail atomicAdd serialization
    # per (group, table).
    insert_gs = np.flatnonzero(g_kind == op_ir.INSERT_ROW)
    if len(insert_gs):
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
        es = np.flatnonzero(s_kind == op_ir.INSERT_ROW)
        ntx_e = step_ntx[s_step[es]]
        np.add.at(mem_tx, s_sm[es], ntx_e)
        np.add.at(mem_bytes, s_sm[es], ntx_e * seg)
        np.add.at(mem_instr, g_sm[insert_gs], 1)
        np.add.at(issue, g_sm[insert_gs], plain)
        # (group, table) -> member count; >1 serialises the atomicAdd.
        pair = group_of_event[es] * len(tid_of) + step_tids[s_step[es]]
        pairs, counts = np.unique(pair, return_counts=True)
        for p, count in zip(pairs[counts > 1], counts[counts > 1]):
            sm = int(g_sm[int(p) // len(tid_of)])
            atomic_cycles[sm] += cost.atomic_serialization(int(count))
            stats.atomic_conflicts += int(count) - 1
    delete_gs = np.flatnonzero(g_kind == op_ir.DELETE_ROW)
    if len(delete_gs):
        sizes_g = g_end[delete_gs] - g_start[delete_gs]
        np.add.at(mem_tx, g_sm[delete_gs], sizes_g)
        np.add.at(mem_bytes, g_sm[delete_gs], sizes_g * seg)
        np.add.at(mem_instr, g_sm[delete_gs], 1)
        np.add.at(issue, g_sm[delete_gs], plain)

    if schedule is not None:
        # Acquire/spin-phase charges the scheduler accumulated. Every
        # quantum is an integer-valued float (< 2**53), so adding the
        # per-SM totals is exact regardless of accumulation order.
        issue += schedule.issue_cycles
        atomic_cycles += schedule.atomic_cycles
        mem_tx += schedule.mem_transactions
        mem_bytes += schedule.mem_bytes

    # tolist() yields Python scalars, so downstream arithmetic (and
    # report equality checks) see the same types as the interpreter.
    stats.issue_cycles = issue.tolist()
    stats.mem_transactions = mem_tx.tolist()
    stats.mem_instructions = mem_instr.tolist()
    stats.mem_bytes = mem_bytes.tolist()
    stats.atomic_cycles = atomic_cycles.tolist()

    timing = cost.resolve(stats)
    return KernelReport(stats=stats, timing=timing, outcomes=outcomes)


class VisitTracker:
    """Per-SM warp visit ranks under the scheduler's swap-removal.

    The interpreter sweeps each SM's live-warp list every round,
    replacing a warp first encountered with no live thread by the
    list's last warp (without advancing the index, so the swapped-in
    warp is examined next). Replaying only the *death rounds* in
    ascending order -- each one its own left-to-right sweep -- leaves
    the list in the identical state, because sweeps of rounds with no
    newly-dead warps remove nothing; and enumerating the post-sweep
    list assigns every surviving warp the same visit rank the
    interpreter hands out mid-sweep. (Removal order matters: two warps
    dying in the same round are removed in *scan position* order, which
    is not warp-id order once earlier deaths have permuted the list.)

    ``warp_last`` is each warp's last round with a live thread; a warp
    is swap-removed by the sweep of round ``warp_last + 1``. It is read
    when ranks are asked for, so the lock scheduler may still be
    filling it in: bodies run the moment their locks are granted, so a
    warp's last round is known before the schedule reaches it, and a
    launch that never asks (no lock gates) never pays. Rounds must be
    asked in ascending order per SM.
    """

    def __init__(
        self, sm_warp_ids: Sequence[Sequence[int]], warp_last: np.ndarray
    ) -> None:
        self._sm_warp_ids = sm_warp_ids
        #: sm -> its live-warp list, copied when first asked about.
        self._live: Dict[int, List[int]] = {}
        self._warp_last = warp_last

    def ranks_at(self, sm: int, r: int) -> Dict[int, int]:
        """``{warp: visit rank}`` of ``sm`` at round ``r`` (1-based),
        in visit order; a warp already removed is absent."""
        live = self._live.get(sm)
        if live is None:
            live = self._live[sm] = list(self._sm_warp_ids[sm])
        warp_last = self._warp_last
        deaths = {int(warp_last[w]) + 1 for w in live if warp_last[w] < r}
        for d in sorted(deaths):
            i = 0
            while i < len(live):
                if warp_last[live[i]] < d:
                    live[i] = live[-1]
                    live.pop()
                else:
                    i += 1
        return {w: i for i, w in enumerate(live)}


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
    matrix would dominate memory at benchmark scale.
    """
    visits = np.full((len(needed_rounds), len(warp_last)), -1, dtype=np.int64)
    tracker = VisitTracker(sm_warp_ids, warp_last)
    rounds = needed_rounds.tolist()
    for sm, ids in enumerate(sm_warp_ids):
        if not ids:
            continue  # no resident warp: nothing to rank
        for i, r in enumerate(rounds):
            ranks = tracker.ranks_at(sm, r)
            visits[i, list(ranks)] = range(len(ranks))
    return visits


def _resolve_order_and_addresses(
    recorder: TraceRecorder,
    store: WaveStore,
    bounds: List[Tuple[int, int]],
    sm_warp_ids: List[List[int]],
    sm_of_warp: np.ndarray,
    ev_thread: np.ndarray,
    ev_round: np.ndarray,
    ev_kind: np.ndarray,
    ev_branch: np.ndarray,
    ev_warp: np.ndarray,
    ev_addr: np.ndarray,
    ev_width: np.ndarray,
    ev_payload: np.ndarray,
    ev_step: np.ndarray,
    offsets: np.ndarray,
    deferred_steps: List[int],
    schedule: Optional[ScheduleOverrides] = None,
) -> None:
    """Compute the interpreter event order over the *order-sensitive
    subset* of events -- staged inserts/deletes plus deferred-address
    reads/writes -- then (a) apply the mutations in it and (b) resolve
    the deferred device addresses against the row counts in effect at
    each event.

    Restricting the ordering to the subset is sound because every
    divergence group that contains a subset event consists entirely of
    subset events (insert/delete groups are homogeneous in kind; a
    deferred step's whole lane set is deferred), so relative order
    within the subset never depends on excluded events.
    """
    E = len(ev_thread)
    sub_mask = (ev_kind == op_ir.INSERT_ROW) | (ev_kind == op_ir.DELETE_ROW)
    if deferred_steps:
        sub_mask |= np.isin(
            ev_step, np.asarray(deferred_steps, dtype=np.int64)
        )
    sub = np.flatnonzero(sub_mask)
    s_thread = ev_thread[sub]
    s_round = ev_round[sub]
    s_warp = ev_warp[sub]
    s_kind = ev_kind[sub]
    s_branch = ev_branch[sub]
    S = len(sub)

    if schedule is not None:
        warp_last = schedule.warp_last_round
    else:
        # Conflict-free: a warp lives as long as its longest thread.
        op_count = recorder.op_count
        warp_last = np.array(
            [op_count[lo:hi].max() if hi > lo else 0 for lo, hi in bounds],
            dtype=np.int64,
        )
    needed = np.unique(s_round)
    visits = _warp_visit_ranks(sm_warp_ids, warp_last, needed)
    s_visit = visits[np.searchsorted(needed, s_round), s_warp]
    s_sm = sm_of_warp[s_warp]
    # First-occurrence order of each (round, warp, branch, kind) group
    # = the minimum member thread id (members iterate in warp order).
    order_g = _pack_sort(s_round, s_warp, s_branch + 1, s_kind, s_thread)
    fresh = np.ones(S, dtype=bool)
    if S > 1:
        fresh[1:] = (
            (s_round[order_g][1:] != s_round[order_g][:-1])
            | (s_warp[order_g][1:] != s_warp[order_g][:-1])
            | (s_branch[order_g][1:] != s_branch[order_g][:-1])
            | (s_kind[order_g][1:] != s_kind[order_g][:-1])
        )
    group_of_sorted = np.cumsum(fresh) - 1
    g_min_thread = np.minimum.reduceat(
        s_thread[order_g], np.flatnonzero(fresh)
    ) if S else np.zeros(0, dtype=np.int64)
    s_gfirst = np.empty(S, dtype=np.int64)
    s_gfirst[order_g] = g_min_thread[group_of_sorted]
    sub_order = _pack_sort(s_round, s_sm, s_visit, s_gfirst, s_thread)
    #: Event index -> rank within the ordered subset (-1 elsewhere).
    pos = np.full(E, -1, dtype=np.int64)
    pos[sub[sub_order]] = np.arange(S)

    # Apply staged mutations in event order; record handle -> row id.
    # The mapping is published on the store: undo logs captured during
    # the kernel name staged rows by handle and are remapped to these
    # physical ids afterwards (tx_logging.remap_handle_rows).
    handle_row: Dict[int, int] = {}
    store.handle_row = handle_row
    mut_events = np.flatnonzero(
        (ev_kind == op_ir.INSERT_ROW) | (ev_kind == op_ir.DELETE_ROW)
    )
    mut_events = mut_events[np.argsort(pos[mut_events])]
    # Inserts-before prefix per mutating table (by subset rank), for
    # address resolution on tables whose row count moves mid-kernel.
    inserts_before: Dict[str, np.ndarray] = {}
    if deferred_steps:
        is_insert = (ev_kind[sub] == op_ir.INSERT_ROW).astype(np.int64)
        for table in store.mutating_tables:
            table_mask = np.zeros(E, dtype=bool)
            for i, step in enumerate(recorder.steps):
                if step.kind == op_ir.INSERT_ROW and step.table == table:
                    table_mask[offsets[i] : offsets[i + 1]] = True
            ordered = (is_insert * table_mask[sub])[sub_order]
            before = np.zeros(S, dtype=np.int64)
            if S > 1:
                np.cumsum(ordered[:-1], out=before[1:])
            inserts_before[table] = before  # indexed by subset rank

    adapter = store.adapter
    base_rows = {
        t: store.addressing(t).n_rows for t in store.mutating_tables
    }
    predicted: Dict[str, int] = dict(base_rows)
    for e in mut_events:
        if ev_kind[e] == op_ir.INSERT_ROW:
            handle = int(ev_payload[e]) - HANDLE_BASE
            table, _values = store.pending_inserts[handle]
            handle_row[handle] = predicted[table]
            predicted[table] += 1
        # Deletes resolve their target after every handle is known.

    # Apply the mutations: consecutive inserts between deletes batch
    # into one insert_bulk per table (the paper's post-kernel batched
    # update). Per-table insert order -- the only order physical row
    # ids and the redo stream depend on -- is the event order, and the
    # flush before each delete keeps insert-before-delete ordering for
    # rows staged and deleted in the same launch.
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

    for e in mut_events:
        if ev_kind[e] == op_ir.INSERT_ROW:
            handle = int(ev_payload[e]) - HANDLE_BASE
            table, values = store.pending_inserts[handle]
            if table not in run_values:
                run_tables.append(table)
                run_values[table] = []
                run_rows[table] = []
            run_values[table].append(values)
            run_rows[table].append(handle_row[handle])
        else:
            flush_inserts()
            row_enc = int(ev_payload[e])
            if row_enc >= HANDLE_BASE:
                row_enc = handle_row[row_enc - HANDLE_BASE]
            adapter.delete(recorder.steps[ev_step[e]].table, row_enc)
    flush_inserts()

    # Writes to rows staged by a same-launch insert, now that the
    # rows exist. Staging order is per-cell program order (a staged
    # row is only ever written by the lane whose partition owns it),
    # and the adapter call keeps the redo stream's per-cell order:
    # insert with original values first, then the write.
    for table, column, handle, value in store.pending_handle_writes:
        adapter.write(table, column, handle_row[handle], value)

    # Resolve deferred addresses with the per-event row counts.
    for i in deferred_steps:
        step = recorder.steps[i]
        table, column, rows_enc = step.deferred
        lo, hi = offsets[i], offsets[i + 1]
        rows = rows_enc.astype(np.int64).copy()
        handles = rows >= HANDLE_BASE
        for j in np.flatnonzero(handles):
            rows[j] = handle_row[int(rows_enc[j]) - HANDLE_BASE]
        info = store.addressing(table)
        n_at = base_rows[table] + inserts_before[table][pos[lo:hi]]
        addr, _width = info.addresses(column, rows, n_rows=n_at)
        ev_addr[lo:hi] = addr
