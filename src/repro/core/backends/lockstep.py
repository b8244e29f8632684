"""The vectorized backend's thread-per-transaction launch: closed-form
TPL lock scheduling, with a K-SET wave as its lock-free case.

The paper's K-SET kernel is its TPL kernel with the two locking phases
removed (Section 5.3 vs. 5.1), so both run through
:func:`run_locked_schedule`; a wave is the launch whose lock plans are
all empty, in which no event below is ever queued.

The SIMT interpreter resolves a TPL kernel by spinning every blocked
thread one round at a time: each round, every thread at a counter-lock
gate re-checks ``counter == key`` and either passes or spins again
(Appendix C, Figure 11). That loop is exact but serial in rounds --
the hot path this module replaces.

The replacement rests on one observation: with counter locks, the
round at which anything *changes* is a deterministic function of the
release schedule. A thread's pass round is decided by when the
previous rank's holders release (advance the counter); its body op
rounds follow one per round; its release rounds follow its body. So
instead of simulating every round, the scheduler walks an event queue
of just the rounds where a counter can move or a thread first arrives
at a gate, and *integrates* the spin charges of every skipped round in
closed form over the constant-state intervals between events.

Equivalence argument (the invariants the property suite pins down):

* **One advance per (lock, round).** A newly-enabled holder cannot
  release in its pass round -- its body is at least one op long (the
  registry wrapper's ``SetBranch``), so its first release comes at
  least two rounds after it passes. A shared run's countdown cannot
  complete before every run member has passed and released. Hence a
  lock's counter advances at most once per round, and a woken waiter's
  gate value is still current at its next check.
* **Position order.** Within one round the interpreter visits SMs in
  index order, warps in scheduler visit order (with the swap-removal
  of finished warps), and divergence groups in first-member-lane
  order. A waiter whose group sits *after* the releasing group in that
  order sees the advanced counter the same round and passes; one
  sitting before it passes next round. The sweep below replays exactly
  that comparison, using the real :class:`~repro.gpu.atomics.LockTable`
  for every counter mutation so reader-run countdowns behave
  identically.
* **Interval compression is exact.** An acquire group's per-round
  charges (one spin issue, the lock-word coalesce, the per-lock atomic
  serialization) depend only on its member set and their current
  gates, which change only when a member passes. Every charge quantum
  is an integer-valued float, so multiplying by the interval length
  equals the interpreter's repeated addition bit for bit.

Bodies run, one same-type sub-wave per
:func:`~repro.core.backends.wave.run_sub_wave` call (which alone decides
between a column kernel and one op stream per lane), the
moment their locks are granted -- safe under two-phase locking because
any conflicting transaction's lock window is serialized after the
holder's, so processing rounds in ascending order always presents the
store state the interpreter would have. Abort-capable transactions
journal before-images as bulk gathers (``capture_undo``), and aborted
lanes' dirty writes stay visible to rank-successors exactly as the
interpreter leaves them (recovery rolls both back after the kernel).

The recorded trace (body ops plus LOCK_ACQUIRE pass and LOCK_RELEASE
events, recorded at their scheduled rounds without counting as body
ops) replays through
:func:`~repro.core.backends.replay.replay_kernel` with a
:class:`~repro.core.backends.replay.ScheduleOverrides` carrying the
spin-phase charges and the true round horizon; the result is a
:class:`~repro.gpu.simt.KernelReport` byte-identical to the
interpreter's -- outcomes, physical state, and simulated clock.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.backends.replay import ScheduleOverrides, VisitTracker, replay_kernel
from repro.core.backends.wave import TraceRecorder, WaveStore, run_sub_wave
from repro.errors import DeadlockError, KernelTimeoutError
from repro.gpu import ops as op_ir
from repro.gpu.simt import KernelReport, OutcomeColumns, warp_layout
from repro.gpu.simt import _LOCK_SPACE_BASE as LOCK_BASE

#: Sentinel "still alive" value for warps whose last round is unknown.
_ALIVE = np.iinfo(np.int64).max


class _Charges:
    """Per-SM charge accumulators for the acquire/spin phase."""

    def __init__(self, num_sms: int, cost: Any, seg: int) -> None:
        self.cost = cost
        self.seg = seg
        self.issue = np.zeros(num_sms, dtype=np.float64)
        self.atomic = np.zeros(num_sms, dtype=np.float64)
        self.mem_tx = np.zeros(num_sms, dtype=np.int64)
        self.mem_bytes = np.zeros(num_sms, dtype=np.int64)
        self.spin_iterations = 0
        self.atomic_conflicts = 0


class _AcqGroup:
    """One divergence group of spinning/acquiring threads.

    All live threads of one (warp, type) that are still in their
    growing phase sit in this group: same branch tag, same op kind
    (LOCK_ACQUIRE), hence one interpreter group per round. Its state
    -- the member set and each member's current gate lock -- changes
    only when members pass, so charges accrue in closed form over the
    interval since the last change (``t0``).
    """

    __slots__ = ("sm", "warp", "type_id", "members", "t0")

    def __init__(self, sm: int, warp: int, type_id: int) -> None:
        self.sm = sm
        self.warp = warp
        self.type_id = type_id
        #: thread -> lock id of its current gate.
        self.members: Dict[int, int] = {}
        #: First round of the current constant-state interval.
        self.t0 = 1

    def settle(
        self,
        r: int,
        passers: int,
        charges: _Charges,
        spin_out: List[Tuple[int, int]],
    ) -> None:
        """Charge rounds ``t0 .. r`` with the current member state.

        Mirrors the interpreter's per-round LOCK_ACQUIRE group charges:
        one spin-issue per round, the lock-word coalesce over all
        members' gate addresses, per-lock atomic serialization where
        members contend, and one spin iteration per non-passing member
        per round. Exact because every quantum is an integer-valued
        float (multiplication == repeated addition). Rounds with no
        passes (``t0 .. r-1``) left no trace events; they go to
        ``spin_out`` for the divergence correction.
        """
        length = r - self.t0 + 1
        if length <= 0:  # pragma: no cover - scheduler invariant
            raise AssertionError("settle before interval start")
        cost = charges.cost
        locks_now = list(self.members.values())
        charges.issue[self.sm] += cost.issue_spin() * length
        for lock, count in Counter(locks_now).items():
            if count > 1:
                charges.atomic[self.sm] += (
                    cost.atomic_serialization(count) * length
                )
                charges.atomic_conflicts += (count - 1) * length
        ntx = cost.coalesce([LOCK_BASE + lock * 8 for lock in locks_now], 8)
        charges.mem_tx[self.sm] += ntx * length
        charges.mem_bytes[self.sm] += ntx * charges.seg * length
        charges.spin_iterations += len(self.members) * length - passers
        if r - 1 >= self.t0:
            spin_out.append((self.t0, r - 1))
        self.t0 = r + 1


def _merge_intervals(ivs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    if not ivs:
        return []
    ivs = sorted(ivs)
    out = [ivs[0]]
    for a, b in ivs[1:]:
        la, lb = out[-1]
        if a <= lb:
            if b > lb:
                out[-1] = (la, b)
        else:
            out.append((a, b))
    return out


def _uncovered_count(
    spin: List[Tuple[int, int]], occ: List[Tuple[int, int]]
) -> int:
    """``|union(spin) \\ union(occ)|`` over integer rounds."""
    spin_m = _merge_intervals(spin)
    occ_m = _merge_intervals(occ)
    total = sum(b - a + 1 for a, b in spin_m)
    overlap = 0
    j = 0
    for a, b in spin_m:
        while j < len(occ_m) and occ_m[j][1] < a:
            j += 1
        k = j
        while k < len(occ_m) and occ_m[k][0] <= b:
            overlap += min(b, occ_m[k][1]) - max(a, occ_m[k][0]) + 1
            if occ_m[k][1] > b:
                break
            k += 1
    return total - overlap


def run_locked_schedule(
    executor: Any,
    transactions: Any,
    by_type: Dict[str, Any],
    plans: Sequence[Sequence[Tuple[int, int, bool]]],
    locks: Any,
    store: WaveStore,
) -> KernelReport:
    """Execute one thread-per-transaction launch as a closed-form lock
    schedule.

    ``by_type`` groups the launch's thread indices by transaction type
    name. ``transactions`` is the launch's
    :class:`~repro.core.txn.TransactionColumns`; ``plans`` aligns with
    it: each entry is the
    thread's merged-item lock plan ``[(lock_id, key, shared), ...]`` in
    item order (the order the growing and shrinking phases walk).
    ``locks`` is the pre-seeded :class:`~repro.gpu.atomics.LockTable`
    -- mutated here exactly as the interpreter would, one release at a
    time in interpreter position order.

    A K-SET wave is the launch whose plans are all empty: every thread
    runs its body from round 1, no event is ever queued, and all the
    bookkeeping below happens once per type in columns.
    """
    engine = executor.engine
    spec = engine.spec
    cost = engine.cost
    registry = executor.registry
    params = transactions.params
    n = len(params)

    layout = warp_layout(n, engine.block_size, spec)
    bounds, sm_warp_ids, _resident, warp_of, sm_of_warp = layout
    recorder = TraceRecorder(n)
    recorder.undo_capture = np.zeros(n, dtype=bool)
    type_ids = np.empty(n, dtype=np.int64)
    #: type id -> (transaction type, its thread indices, whether its
    #: threads journal before-images -- bulk undo capture, one gather
    #: per write step, exactly like the interpreter's per-row appends).
    types: Dict[int, Tuple[Any, np.ndarray, bool]] = {}
    for name, idxs in by_type.items():
        tid = registry.type_id(name)
        lanes = np.asarray(idxs, dtype=np.int64)
        capture_undo = registry.needs_undo(name)
        types[tid] = (registry.get(name), lanes, capture_undo)
        type_ids[lanes] = tid
        recorder.undo_capture[lanes] = capture_undo

    charges = _Charges(spec.num_sms, cost, spec.memory_transaction_bytes)

    warp_last = np.full(len(bounds), _ALIVE, dtype=np.int64)
    warp_remaining = np.bincount(warp_of, minlength=len(bounds))
    warp_max_done = np.zeros(len(bounds), dtype=np.int64)
    tracker = VisitTracker(sm_warp_ids, warp_last)

    # Per-thread progress and results, one column each.
    held = np.fromiter(map(len, plans), np.int64, n)
    gate = np.zeros(n, dtype=np.int64)
    done_round = np.full(n, -1, dtype=np.int64)
    committed = np.ones(n, dtype=bool)
    abort_reason = np.full(n, "", dtype=object)
    results = np.full(n, None, dtype=object)
    undo_logs: List[Any] = [None] * n
    out = (committed, abort_reason, results, undo_logs)

    #: (warp, type_id) -> acquire group.
    groups: Dict[Tuple[int, int], _AcqGroup] = {}
    #: (lock, key) -> parked [(thread, group)] waiting for that value.
    waiters: Dict[Tuple[int, int], List[Tuple[int, _AcqGroup]]] = {}
    #: round -> (first-attempt arrivals, counter mutations).
    pending: Dict[int, Tuple[List[int], List[Tuple]]] = {}
    heap: List[int] = []

    # Lock-op trace events, recorded once the schedule is done.
    pass_threads: List[int] = []
    pass_rounds: List[int] = []
    pass_locks: List[int] = []
    rel_threads: List[int] = []
    rel_rounds: List[int] = []
    rel_locks: List[int] = []
    #: warp -> gate-pass rounds, and warp -> spin-only group intervals;
    #: with the body spans (``round_base .. done_round``: a thread's
    #: only recorded ops are its body's) they feed the divergence
    #: correction.
    pass_points: Dict[int, List[Tuple[int, int]]] = {}
    spin_ivs: Dict[int, List[Tuple[int, int]]] = {}

    def schedule(round_: int, kind: str, item: Any) -> None:
        entry = pending.get(round_)
        if entry is None:
            entry = pending[round_] = ([], [])
            heapq.heappush(heap, round_)
        entry[0 if kind == "arr" else 1].append(item)

    def run_bodies(ready: Dict[int, np.ndarray], r: int) -> None:
        """Run the bodies of the threads granted at round ``r`` -- per
        type (``ready``: type id -> ascending thread indices) one
        :func:`run_sub_wave` -- then retire them all in one pass.

        Bodies start at round ``r + 1`` (the round after the final
        gate pass); release and abort counter effects are scheduled at
        the rounds the interpreter would execute them. Eager execution
        is safe under 2PL: every conflicting transaction's window is
        serialized after this one's, and rounds process in ascending
        order.
        """
        for tid in sorted(ready):
            lanes = ready[tid]
            txn_type, _lanes, capture_undo = types[tid]
            recorder.round_base[lanes] = r + 1
            run_sub_wave(
                recorder, store, lanes, tid, txn_type,
                list(map(params.__getitem__, lanes.tolist())), out,
                record_abort_ops=True, capture_undo=capture_undo,
            )
        lanes = np.concatenate([ready[tid] for tid in sorted(ready)])
        # A committed thread releases its locks one per round after
        # its last body op; an aborted one is done at its ABORT op.
        end = r + recorder.op_count[lanes]
        ok = committed[lanes]
        locked = held[lanes]
        done = end + locked * ok
        done_round[lanes] = done
        warps = warp_of[lanes]
        np.maximum.at(warp_max_done, warps, done)
        np.subtract.at(warp_remaining, warps, 1)
        dead = warps[warp_remaining[warps] == 0]
        tracker.retire(dead, warp_max_done[dead], sm_of_warp)
        for j in np.flatnonzero(locked).tolist():
            t = int(lanes[j])
            end_j = int(end[j])
            if ok[j]:
                # Shrinking phase: one release per round, plan order.
                for k, (lock, _key, _shared) in enumerate(plans[t]):
                    rel_threads.append(t)
                    rel_rounds.append(end_j + 1 + k)
                    rel_locks.append(lock)
                    schedule(end_j + 1 + k, "mut", ("rel", t, k))
            else:
                # The ABORT op auto-releases every held lock that
                # round (no trace events, no charges -- counter
                # effects only).
                schedule(end_j, "mut", ("abort", t))

    # ---- seed: zero-lock threads run at once; the rest join their
    # acquire groups and first-attempt their gates at round 1.
    for t in np.flatnonzero(held).tolist():
        key = (int(warp_of[t]), int(type_ids[t]))
        g = groups.get(key)
        if g is None:
            g = groups[key] = _AcqGroup(
                int(sm_of_warp[key[0]]), key[0], key[1]
            )
        g.members[t] = plans[t][0][0]
        schedule(1, "arr", t)
    free = {}
    for tid, (_type, lanes, _capture) in types.items():
        unlocked = lanes[held[lanes] == 0]
        if len(unlocked):
            free[tid] = unlocked
    if free:
        run_bodies(free, 0)

    # ---- event loop ----------------------------------------------------
    while heap:
        r = heapq.heappop(heap)
        arrivals, mutations = pending.pop(r)
        if r > engine.max_rounds:
            raise KernelTimeoutError(
                f"kernel exceeded {engine.max_rounds} rounds"
            )

        def rank_of(sm: int, w: int) -> int:
            return tracker.ranks_at(sm, r)[w]

        def group_pos(g: _AcqGroup) -> Tuple[int, int, int]:
            return (g.sm, rank_of(g.sm, g.warp), min(g.members))

        # This round's position-ordered events: acquire groups with
        # first-attempt arrivals, release groups, abort groups -- each
        # at (sm, warp visit rank, first member lane).
        events: List[Tuple[Tuple[int, int, int, int], str, Any]] = []
        arr_by_group: Dict[Tuple[int, int], List[int]] = {}
        for t in arrivals:
            arr_by_group.setdefault(
                (int(warp_of[t]), int(type_ids[t])), []
            ).append(t)
        for key, ts in arr_by_group.items():
            g = groups[key]
            events.append((group_pos(g) + (0,), "arr", (g, ts)))
        rel_by_group: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        abort_by_group: Dict[Tuple[int, int], List[int]] = {}
        for mut in mutations:
            if mut[0] == "rel":
                _tag, t, k = mut
                rel_by_group.setdefault(
                    (int(warp_of[t]), int(type_ids[t])), []
                ).append((t, k))
            else:
                _tag, t = mut
                abort_by_group.setdefault(
                    (int(warp_of[t]), int(type_ids[t])), []
                ).append(t)
        for (w, _tid), items in rel_by_group.items():
            items.sort()
            sm = int(sm_of_warp[w])
            events.append(
                ((sm, rank_of(sm, w), items[0][0], 1), "rel", items)
            )
        for (w, _tid), ts in abort_by_group.items():
            ts.sort()
            sm = int(sm_of_warp[w])
            events.append(((sm, rank_of(sm, w), ts[0], 2), "abort", ts))
        events.sort(key=lambda e: e[0])

        passes: Dict[Tuple[int, int], List[int]] = {}

        def pass_now(g: _AcqGroup, t: int) -> None:
            passes.setdefault((g.warp, g.type_id), []).append(t)

        def wake(lock: int, value: int, pos: Tuple[int, ...]) -> None:
            # A parked waiter's key is now current. If its group is
            # visited after the releasing group this round, it passes
            # now; otherwise it already failed this round's check and
            # passes at its next attempt (the counter cannot move past
            # its key before it releases, so the re-check succeeds).
            for t, g in waiters.pop((lock, value), ()):
                if group_pos(g) > pos[:3]:
                    pass_now(g, t)
                else:
                    schedule(r + 1, "arr", t)

        values = locks.values
        for pos, kind, payload in events:
            if kind == "arr":
                g, ts = payload
                for t in sorted(ts):
                    lock = g.members[t]
                    _l, key, _shared = plans[t][gate[t]]
                    if locks.try_pass_counter(lock, key):
                        pass_now(g, t)
                    else:
                        waiters.setdefault((lock, key), []).append((t, g))
            elif kind == "rel":
                for t, k in payload:
                    lock, key, shared = plans[t][k]
                    old = int(values[lock])
                    locks.release_counter(lock, key, shared)
                    new = int(values[lock])
                    if new != old:
                        wake(lock, new, pos)
            else:  # abort: release every held lock, plan order
                for t in payload:
                    for lock, key, shared in plans[t]:
                        old = int(values[lock])
                        locks.release_counter(lock, key, shared)
                        new = int(values[lock])
                        if new != old:
                            wake(lock, new, pos)

        # Settle groups with passes (charges use pre-pass state), then
        # advance the passers and collect granted threads per type.
        body_ready: Dict[int, List[int]] = {}
        for key in sorted(passes):
            g = groups[key]
            ts = passes[key]
            g.settle(r, len(ts), charges, spin_ivs.setdefault(g.warp, []))
            w_occ = pass_points.setdefault(g.warp, [])
            for t in sorted(ts):
                pass_threads.append(t)
                pass_rounds.append(r)
                pass_locks.append(g.members[t])
                w_occ.append((r, r))
                gate[t] += 1
                if gate[t] < len(plans[t]):
                    g.members[t] = plans[t][gate[t]][0]
                    schedule(r + 1, "arr", t)
                else:
                    del g.members[t]
                    body_ready.setdefault(g.type_id, []).append(t)
            if not g.members:
                del groups[key]
        if body_ready:
            run_bodies(
                {
                    tid: np.asarray(sorted(ts), dtype=np.int64)
                    for tid, ts in body_ready.items()
                },
                r,
            )

    parked = int((done_round < 0).sum())
    if parked:
        raise DeadlockError(
            f"lock schedule stalled with {parked} thread(s) parked "
            "on counter gates that can never advance (invalid rank keys)"
        )

    rounds_total = int(done_round.max()) if n else 0
    if rounds_total > engine.max_rounds:  # pragma: no cover - loop raises
        raise KernelTimeoutError(
            f"kernel exceeded {engine.max_rounds} rounds"
        )

    # ---- lock-op trace events, at their scheduled rounds ---------------
    # Pass events replay as uncharged LOCK_ACQUIRE groups (their charges
    # came via settle), release events charge exactly like the
    # interpreter's release groups; neither is a body op.
    for kind, threads, rounds, lock_ids in (
        (op_ir.LOCK_ACQUIRE, pass_threads, pass_rounds, pass_locks),
        (op_ir.LOCK_RELEASE, rel_threads, rel_rounds, rel_locks),
    ):
        lanes_arr = np.asarray(threads, dtype=np.int64)
        recorder.record(
            kind, lanes_arr, type_ids[lanes_arr],
            rounds=np.asarray(rounds, dtype=np.int64),
            addr=LOCK_BASE + np.asarray(lock_ids, dtype=np.int64) * 8,
        )

    # ---- divergence correction -----------------------------------------
    # The interpreter counts (groups - 1) per (round, warp); the replay
    # only sees groups with trace events. Spin-only acquire groups add
    # one each per spun round, minus one for every (round, warp) where
    # spin-only groups were the *only* groups (no trace events at all:
    # rounds inside a spin interval and outside every occupied span).
    extra = sum(
        b - a + 1 for ivs in spin_ivs.values() for a, b in ivs
    )
    for w, ivs in spin_ivs.items():
        lo, hi = bounds[w]
        spans = zip(
            recorder.round_base[lo:hi].tolist(), done_round[lo:hi].tolist()
        )
        extra -= _uncovered_count(ivs, pass_points.get(w, []) + list(spans))

    schedule_ov = ScheduleOverrides(
        layout=layout,
        rounds=rounds_total,
        warp_last_round=warp_last,
        issue_cycles=charges.issue,
        atomic_cycles=charges.atomic,
        mem_transactions=charges.mem_tx,
        mem_bytes=charges.mem_bytes,
        spin_iterations=charges.spin_iterations,
        atomic_conflicts=charges.atomic_conflicts,
        divergent_serializations=extra,
    )

    outcomes = OutcomeColumns(
        list(transactions.txn_id),
        type_ids.tolist(),
        committed.tolist(),
        abort_reason.tolist(),
        results.tolist(),
    )
    report = replay_kernel(
        recorder, store, engine, outcomes, schedule=schedule_ov
    )
    # Results and undo logs were made during the kernel, before staged
    # inserts materialised: decode their handles to the physical ids
    # the replay assigned.
    store.publish(outcomes.result, store.handed)
    for t, entries in enumerate(undo_logs):
        if entries:
            outcomes.undo[t] = store.logged(entries)
    return report
