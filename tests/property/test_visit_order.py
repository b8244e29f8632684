"""Property: :class:`~repro.core.backends.replay.VisitTracker` hands
out the interpreter's warp visit ranks.

``SIMTEngine.launch`` sweeps each SM's live-warp list every round and
swap-removes a warp the first time it is met with no live thread
(without advancing the index). The tracker replays only the death
rounds; the oracle below sweeps *every* round, exactly like the
interpreter, and the two must agree on every round asked -- death
rounds, rounds between them, and rounds after the last warp died --
for the lock scheduler's per-SM queries and for the replay's
``_warp_visit_ranks`` matrix alike.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends.replay import VisitTracker, _warp_visit_ranks


def sweep_every_round(ids, warp_last, last_round):
    """``{round: {warp: rank}}`` for rounds ``1 .. last_round``: the
    interpreter's sweep, one round at a time. A warp is live through
    round ``warp_last[warp]``; its rank is its position when stepped."""
    live = list(ids)
    ranks = {}
    for r in range(1, last_round + 1):
        w = 0
        while w < len(live):
            if warp_last[live[w]] < r:
                live[w] = live[-1]
                live.pop()
                continue
            w += 1
        ranks[r] = {warp: rank for rank, warp in enumerate(live)}
    return ranks


@st.composite
def _launches(draw):
    """``(sm_warp_ids, warp_last, asked rounds)`` with plenty of ties:
    few distinct death rounds over up to a dozen warps per SM."""
    n_warps = draw(st.integers(1, 24))
    n_sms = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 8))
    warp_last = draw(
        st.lists(st.integers(0, horizon), min_size=n_warps, max_size=n_warps)
    )
    sm_of = draw(
        st.lists(st.integers(0, n_sms - 1), min_size=n_warps, max_size=n_warps)
    )
    sm_warp_ids = [
        [w for w in range(n_warps) if sm_of[w] == sm] for sm in range(n_sms)
    ]
    asked = draw(
        st.lists(st.integers(1, horizon + 3), min_size=1, unique=True)
    )
    return sm_warp_ids, np.asarray(warp_last, dtype=np.int64), sorted(asked)


@settings(max_examples=300, deadline=None)
@given(launch=_launches())
def test_tracker_matches_the_every_round_sweep(launch):
    sm_warp_ids, warp_last, asked = launch
    tracker = VisitTracker(sm_warp_ids, warp_last)
    for sm, ids in enumerate(sm_warp_ids):
        oracle = sweep_every_round(ids, warp_last, asked[-1])
        for r in asked:
            ranks = tracker.ranks_at(sm, r)
            assert ranks == oracle[r]
            # Visit order is the mapping's own order.
            assert list(ranks.values()) == list(range(len(ranks)))


@settings(max_examples=200, deadline=None)
@given(launch=_launches())
def test_rank_matrix_matches_the_every_round_sweep(launch):
    sm_warp_ids, warp_last, asked = launch
    visits = _warp_visit_ranks(
        sm_warp_ids, warp_last, np.asarray(asked, dtype=np.int64)
    )
    assert visits.shape == (len(asked), len(warp_last))
    for ids in sm_warp_ids:
        oracle = sweep_every_round(ids, warp_last, asked[-1])
        for i, r in enumerate(asked):
            for warp in ids:
                assert visits[i, warp] == oracle[r].get(warp, -1)


def test_same_round_deaths_are_removed_in_scan_position_order():
    """Warps 0, 1 and 4 all die in round 1. Removing them by warp id
    would leave ``[2, 3]``; the sweep meets 0 (swaps in 4), then 4
    (swaps in 3), then 1 (swaps in 2), and leaves ``[3, 2]``."""
    warp_last = np.asarray([0, 0, 2, 1, 0], dtype=np.int64)
    tracker = VisitTracker([[0, 1, 2, 3, 4]], warp_last)
    assert tracker.ranks_at(0, 1) == {3: 0, 2: 1}
    assert tracker.ranks_at(0, 2) == {2: 0}
    assert tracker.ranks_at(0, 3) == {}
    assert tracker.ranks_at(0, 9) == {}


def test_deaths_filled_in_after_construction_are_seen():
    """The lock scheduler announces deaths while it runs: the tracker
    sees one announced after it was built and after it cached ranks."""
    alive = np.iinfo(np.int64).max
    warp_last = np.full(3, alive, dtype=np.int64)
    tracker = VisitTracker([[0, 1, 2]], warp_last)
    assert tracker.ranks_at(0, 5) == {0: 0, 1: 1, 2: 2}
    tracker.retire(np.array([0]), np.array([6]), np.zeros(3, dtype=np.int64))
    assert warp_last[0] == 6
    assert tracker.ranks_at(0, 6) == {0: 0, 1: 1, 2: 2}
    assert tracker.ranks_at(0, 7) == {2: 0, 1: 1}


@st.composite
def _announced_launches(draw):
    """A launch plus, per warp, the first asked round its death is
    announced before: any round up to its death round ``last + 1``."""
    sm_warp_ids, warp_last, asked = draw(_launches())
    announce = [draw(st.integers(1, int(last) + 1)) for last in warp_last]
    asked_sms = [
        draw(st.lists(st.integers(0, len(sm_warp_ids) - 1), unique=True))
        for _ in asked
    ]
    return sm_warp_ids, warp_last, asked, announce, asked_sms


@settings(max_examples=300, deadline=None)
@given(launch=_announced_launches())
def test_deaths_announced_between_queries_match_the_every_round_sweep(launch):
    """The lock scheduler's order: rounds ascending, some SMs asked per
    round, a warp's death announced (``retire``) before its round is
    asked -- possibly after the SM's ranks were cached."""
    sm_warp_ids, final_last, asked, announce, asked_sms = launch
    sm_of_warp = np.zeros(len(final_last), dtype=np.int64)
    for sm, ids in enumerate(sm_warp_ids):
        sm_of_warp[ids] = sm
    alive = np.iinfo(np.int64).max
    tracker = VisitTracker(
        sm_warp_ids, np.full(len(final_last), alive, dtype=np.int64)
    )
    oracle = [
        sweep_every_round(ids, final_last, asked[-1]) for ids in sm_warp_ids
    ]
    announced = np.zeros(len(final_last), dtype=bool)
    for r, sms in zip(asked, asked_sms):
        due = np.flatnonzero(~announced & (np.asarray(announce) <= r))
        if len(due):
            tracker.retire(due, final_last[due], sm_of_warp)
            announced[due] = True
        for sm in sms:
            assert tracker.ranks_at(sm, r) == oracle[sm][r]


def test_a_tpl_launch_sweeps_once_per_sm_and_death_round(monkeypatch):
    """A TPC-C TPL launch of some 600 transactions: the lock scheduler's
    tracker and the replay's rank matrix each sweep an SM's live-warp
    list at most once per death round of that SM (plus a first look),
    however many rounds ask for ranks in between."""
    from repro import EngineOptions, GPUTx
    from repro.core.backends import lockstep, replay
    from repro.workloads import tpcc

    phase = ["schedule"]
    sweeps = Counter()  # (phase, first live warp) -> sweeps
    asks = Counter()
    launches = []
    real_sweep, real_ranks_at = replay._sweep, VisitTracker.ranks_at
    real_replay = lockstep.replay_kernel

    def counted_sweep(live, warp_last, r):
        sweeps[(phase[0], live[0])] += 1
        return real_sweep(live, warp_last, r)

    def counted_ranks_at(self, sm, r):
        asks[sm] += 1
        return real_ranks_at(self, sm, r)

    def replay_phase(recorder, store, engine, outcomes, schedule=None):
        launches.append(schedule)
        phase[0] = "replay"
        try:
            return real_replay(recorder, store, engine, outcomes, schedule)
        finally:
            phase[0] = "schedule"

    monkeypatch.setattr(replay, "_sweep", counted_sweep)
    monkeypatch.setattr(VisitTracker, "ranks_at", counted_ranks_at)
    monkeypatch.setattr(lockstep, "replay_kernel", replay_phase)

    db = tpcc.build_database(2, customers_per_district=30, n_items=200, seed=3)
    engine = GPUTx(
        db, procedures=tpcc.PROCEDURES,
        options=EngineOptions(backend="vectorized"),
    )
    specs = tpcc.generate_transactions(db, 400, seed=7)
    engine.submit_many(specs)
    result = engine.run_bulk(strategy="tpl")
    (report,) = result.kernel_reports
    assert report.stats.threads_launched == len(specs) >= 300
    (schedule,) = launches
    sm_of_warp = schedule.layout[4]
    deaths = Counter()
    for sm in set(sm_of_warp.tolist()):
        deaths[sm] = len(set(schedule.warp_last_round[sm_of_warp == sm]))
    per_sm = Counter()
    for (where, warp), n in sweeps.items():
        per_sm[(where, int(sm_of_warp[warp]))] += n
    assert {where for where, _sm in per_sm} == {"schedule", "replay"}
    for (where, sm), n in per_sm.items():
        assert n <= deaths[sm] + 1, (where, sm, n, deaths[sm])
    # The cache answers most questions: far more asks than sweeps.
    scheduled = sum(n for (where, _), n in per_sm.items() if where == "schedule")
    assert sum(asks.values()) > 5 * scheduled
