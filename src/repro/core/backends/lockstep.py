"""Closed-form TPL lock scheduling for the vectorized backend.

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

Bodies run as batched column kernels (:class:`WaveContext`) the moment
their locks are granted -- safe under two-phase locking because any
conflicting transaction's lock window is serialized after the
holder's, so processing rounds in ascending order always presents the
store state the interpreter would have. Abort-capable transactions
journal before-images as bulk gathers (``capture_undo``), and aborted
lanes' dirty writes stay visible to rank-successors exactly as the
interpreter leaves them (recovery rolls both back after the kernel).

The recorded trace (body steps plus synthetic LOCK_ACQUIRE pass and
LOCK_RELEASE events at their true rounds) replays through
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

from repro.core import tx_logging
from repro.core.backends.replay import ScheduleOverrides, replay_kernel
from repro.core.backends.wave import (
    HANDLE_BASE,
    Step,
    TraceRecorder,
    WaveContext,
    WaveStore,
)
from repro.errors import DeadlockError, KernelTimeoutError
from repro.gpu import ops as op_ir
from repro.gpu.simt import KernelReport, ThreadOutcome, warp_layout
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


class _VisitTracker:
    """Per-SM warp visit ranks under the scheduler's swap-removal.

    The interpreter sweeps each SM's live-warp list every round,
    replacing a warp first encountered with no live thread by the
    list's last warp (without advancing the index). Replaying only the
    *death rounds* in ascending order -- each one its own left-to-right
    sweep -- leaves the list in the identical state, because sweeps of
    rounds with no newly-dead warps remove nothing; and enumerating the
    post-sweep list assigns every surviving warp the same visit rank
    the interpreter hands out mid-sweep.
    """

    def __init__(
        self, sm_warp_ids: Sequence[Sequence[int]], warp_last: np.ndarray
    ) -> None:
        self._live = [list(ids) for ids in sm_warp_ids]
        self._deaths: List[List[int]] = [[] for _ in sm_warp_ids]
        self._warp_last = warp_last

    def add_death(self, sm: int, round_: int, warp: int) -> None:
        heapq.heappush(self._deaths[sm], round_)

    def ranks_at(self, sm: int, r: int) -> Dict[int, int]:
        deaths = self._deaths[sm]
        live = self._live[sm]
        warp_last = self._warp_last
        while deaths and deaths[0] <= r:
            d = heapq.heappop(deaths)
            i = 0
            while i < len(live):
                if warp_last[live[i]] < d:
                    live[i] = live[-1]
                    live.pop()
                else:
                    i += 1
        return {w: i for i, w in enumerate(live)}


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
    transactions: Sequence[Any],
    plans: Sequence[List[Tuple[int, int, bool]]],
    locks: Any,
    store: WaveStore,
) -> KernelReport:
    """Execute a TPL bulk as a closed-form lock schedule.

    ``plans`` aligns with ``transactions``: each entry is the thread's
    merged-item lock plan ``[(lock_id, key, shared), ...]`` in item
    order (the order the growing and shrinking phases walk). ``locks``
    is the pre-seeded :class:`~repro.gpu.atomics.LockTable` -- mutated
    here exactly as the interpreter would, one release at a time in
    interpreter position order.
    """
    engine = executor.engine
    spec = engine.spec
    cost = engine.cost
    registry = executor.registry
    n = len(transactions)

    type_ids = np.fromiter(
        (registry.type_id(t.type_name) for t in transactions), np.int64, n
    )
    capture = np.array(
        [registry.needs_undo(t.type_name) for t in transactions], dtype=bool
    )
    type_of: Dict[int, Any] = {}
    for t in transactions:
        tid = int(registry.type_id(t.type_name))
        if tid not in type_of:
            type_of[tid] = registry.get(t.type_name)

    bounds, sm_warp_ids, _resident = warp_layout(n, engine.block_size, spec)
    warp_of = np.empty(n, dtype=np.int64)
    for w, (lo, hi) in enumerate(bounds):
        warp_of[lo:hi] = w
    sm_of_warp = np.empty(len(bounds), dtype=np.int64)
    for sm, ids in enumerate(sm_warp_ids):
        for w in ids:
            sm_of_warp[w] = sm

    recorder = TraceRecorder(n)
    recorder.round_base = np.zeros(n, dtype=np.int64)
    recorder.undo_capture = capture

    charges = _Charges(spec.num_sms, cost, spec.memory_transaction_bytes)

    warp_last = np.full(len(bounds), _ALIVE, dtype=np.int64)
    warp_remaining = np.array([hi - lo for lo, hi in bounds], dtype=np.int64)
    warp_max_done = np.zeros(len(bounds), dtype=np.int64)
    tracker = _VisitTracker(sm_warp_ids, warp_last)

    # Per-thread progress and results.
    gate = np.zeros(n, dtype=np.int64)
    done_round = np.full(n, -1, dtype=np.int64)
    committed = np.ones(n, dtype=bool)
    abort_reason = [""] * n
    results: List[Any] = [None] * n
    undo_logs: List[List[Tuple[Any, ...]]] = [[] for _ in range(n)]

    #: (warp, type_id) -> acquire group.
    groups: Dict[Tuple[int, int], _AcqGroup] = {}
    #: (lock, key) -> parked [(thread, group)] waiting for that value.
    waiters: Dict[Tuple[int, int], List[Tuple[int, _AcqGroup]]] = {}
    #: round -> (first-attempt arrivals, counter mutations).
    pending: Dict[int, Tuple[List[int], List[Tuple]]] = {}
    heap: List[int] = []

    # Lock-op trace events, materialised as two synthetic Steps.
    pass_threads: List[int] = []
    pass_rounds: List[int] = []
    pass_locks: List[int] = []
    rel_threads: List[int] = []
    rel_rounds: List[int] = []
    rel_locks: List[int] = []
    #: warp -> rounds carrying trace events (body spans, pass points),
    #: and warp -> spin-only group intervals; both feed the divergence
    #: correction.
    occupied: Dict[int, List[Tuple[int, int]]] = {}
    spin_ivs: Dict[int, List[Tuple[int, int]]] = {}

    def schedule(round_: int, kind: str, item: Any) -> None:
        entry = pending.get(round_)
        if entry is None:
            entry = pending[round_] = ([], [])
            heapq.heappush(heap, round_)
        entry[0 if kind == "arr" else 1].append(item)

    n_done = 0

    def finish_thread(t: int, done: int) -> None:
        nonlocal n_done
        done_round[t] = done
        n_done += 1
        w = int(warp_of[t])
        if done > warp_max_done[w]:
            warp_max_done[w] = done
        warp_remaining[w] -= 1
        if warp_remaining[w] == 0:
            warp_last[w] = warp_max_done[w]
            tracker.add_death(int(sm_of_warp[w]), int(warp_max_done[w]) + 1, w)

    def run_body_batch(tid: int, threads: List[int], r: int) -> None:
        """Run the granted threads' bodies as one column kernel.

        Bodies start at round ``r + 1`` (the round after the final
        gate pass); release and abort counter effects are scheduled at
        the rounds the interpreter would execute them. Eager execution
        is safe under 2PL: every conflicting transaction's window is
        serialized after this one's, and rounds process in ascending
        order.
        """
        lanes = np.asarray(sorted(threads), dtype=np.int64)
        recorder.round_base[lanes] = (r + 1) - recorder.op_count[lanes]
        txns = [transactions[i] for i in lanes.tolist()]
        cap = capture[lanes]
        ctx = WaveContext(
            recorder, store, lanes, tid, txns,
            capture_undo=cap if cap.any() else None,
        )
        ctx.set_branch()
        type_of[tid].vector_body(ctx)
        ctx.close()
        end = recorder.round_base[lanes] + recorder.op_count[lanes] - 1
        for j, t in enumerate(lanes.tolist()):
            end_j = int(end[j])
            committed[t] = bool(ctx.committed[j])
            abort_reason[t] = ctx.abort_reason[j]
            results[t] = ctx.results[j]
            if ctx.undo[j]:
                undo_logs[t] = ctx.undo[j]
            plan = plans[t]
            if ctx.committed[j]:
                # Shrinking phase: one release per round, plan order.
                for k in range(len(plan)):
                    rel_threads.append(t)
                    rel_rounds.append(end_j + 1 + k)
                    rel_locks.append(plan[k][0])
                    schedule(end_j + 1 + k, "mut", ("rel", t, k))
                finish_thread(t, end_j + len(plan))
                occupied.setdefault(int(warp_of[t]), []).append(
                    (r + 1, end_j + len(plan))
                )
            else:
                # The ABORT op auto-releases every held lock that
                # round (no trace events, no charges -- counter
                # effects only).
                if plan:
                    schedule(end_j, "mut", ("abort", t))
                finish_thread(t, end_j)
                occupied.setdefault(int(warp_of[t]), []).append((r + 1, end_j))

    # ---- seed: zero-lock threads run at once; the rest join their
    # acquire groups and first-attempt their gates at round 1.
    free_by_type: Dict[int, List[int]] = {}
    for t in range(n):
        if plans[t]:
            key = (int(warp_of[t]), int(type_ids[t]))
            g = groups.get(key)
            if g is None:
                g = groups[key] = _AcqGroup(
                    int(sm_of_warp[warp_of[t]]), key[0], key[1]
                )
            g.members[t] = plans[t][0][0]
            schedule(1, "arr", t)
        else:
            free_by_type.setdefault(int(type_ids[t]), []).append(t)
    for tid in sorted(free_by_type):
        run_body_batch(tid, free_by_type[tid], 0)

    # ---- event loop ----------------------------------------------------
    while heap:
        r = heapq.heappop(heap)
        arrivals, mutations = pending.pop(r)
        if r > engine.max_rounds:
            raise KernelTimeoutError(
                f"kernel exceeded {engine.max_rounds} rounds"
            )

        rank_cache: Dict[int, Dict[int, int]] = {}

        def rank_of(sm: int, w: int) -> int:
            ranks = rank_cache.get(sm)
            if ranks is None:
                ranks = rank_cache[sm] = tracker.ranks_at(sm, r)
            return ranks[w]

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
                    locks.release_counter(lock, key, shared, True)
                    new = int(values[lock])
                    if new != old:
                        wake(lock, new, pos)
            else:  # abort: release every held lock, plan order
                for t in payload:
                    for lock, key, shared in plans[t]:
                        old = int(values[lock])
                        locks.release_counter(lock, key, shared, True)
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
            w_occ = occupied.setdefault(g.warp, [])
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
        for tid in sorted(body_ready):
            run_body_batch(tid, body_ready[tid], r)

    if n_done != n:
        raise DeadlockError(
            f"lock schedule stalled with {n - n_done} thread(s) parked "
            "on counter gates that can never advance (invalid rank keys)"
        )

    rounds_total = int(done_round.max()) if n else 0
    if rounds_total > engine.max_rounds:  # pragma: no cover - loop raises
        raise KernelTimeoutError(
            f"kernel exceeded {engine.max_rounds} rounds"
        )

    # Collapse the per-batch step fragments into one step per distinct
    # op shape before the replay flattens them (the synthetic lock
    # steps below are appended whole and need no merging).
    recorder.merge_steps()

    # ---- synthetic lock-op trace events --------------------------------
    # Appended directly (record() would double-bump op_count on
    # repeated lanes): pass events replay as uncharged LOCK_ACQUIRE
    # groups (their charges came via settle), release events charge
    # exactly like the interpreter's release groups.
    if pass_threads:
        lanes_arr = np.asarray(pass_threads, dtype=np.int64)
        recorder.steps.append(
            Step(
                op_ir.LOCK_ACQUIRE,
                lanes=lanes_arr,
                opidx=np.zeros(len(lanes_arr), dtype=np.int64),
                branch=type_ids[lanes_arr],
                addr=LOCK_BASE + np.asarray(pass_locks, dtype=np.int64) * 8,
                rounds=np.asarray(pass_rounds, dtype=np.int64),
            )
        )
    if rel_threads:
        lanes_arr = np.asarray(rel_threads, dtype=np.int64)
        recorder.steps.append(
            Step(
                op_ir.LOCK_RELEASE,
                lanes=lanes_arr,
                opidx=np.zeros(len(lanes_arr), dtype=np.int64),
                branch=type_ids[lanes_arr],
                addr=LOCK_BASE + np.asarray(rel_locks, dtype=np.int64) * 8,
                rounds=np.asarray(rel_rounds, dtype=np.int64),
            )
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
        extra -= _uncovered_count(ivs, occupied.get(w, []))

    schedule_ov = ScheduleOverrides(
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

    type_ids_l = type_ids.tolist()
    outcomes = [
        ThreadOutcome(
            txn.txn_id,
            type_ids_l[i],
            bool(committed[i]),
            abort_reason[i],
            results[i],
        )
        for i, txn in enumerate(transactions)
    ]
    report = replay_kernel(
        recorder, store, engine, outcomes, schedule=schedule_ov
    )
    # Undo logs were journalled during the kernel, before staged
    # inserts materialised; rewrite handle-encoded rows to the
    # physical ids the replay assigned (no-op without staged inserts).
    for i, entries in enumerate(undo_logs):
        if entries:
            outcomes[i].undo = tx_logging.remap_handle_rows(
                entries, store.handle_row, HANDLE_BASE
            )
    return report
