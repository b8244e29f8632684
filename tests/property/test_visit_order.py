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
    """The lock scheduler fills ``warp_last`` while it runs: the
    tracker reads it when asked, not when built."""
    alive = np.iinfo(np.int64).max
    warp_last = np.full(3, alive, dtype=np.int64)
    tracker = VisitTracker([[0, 1, 2]], warp_last)
    assert tracker.ranks_at(0, 5) == {0: 0, 1: 1, 2: 2}
    warp_last[0] = 6
    assert tracker.ranks_at(0, 6) == {0: 0, 1: 1, 2: 2}
    assert tracker.ranks_at(0, 7) == {2: 0, 1: 1}
