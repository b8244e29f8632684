"""The width-1 contract: ``run_lane`` is a one-lane ``WaveContext``.

A one-lane sub-wave of a TPL, K-SET or PART launch runs the type's op
stream through :func:`repro.core.backends.wave.run_lane` instead of its
vector body. Nothing in production builds a one-lane ``WaveContext``
any more, so this file builds one on purpose and diffs the two drivers
transaction by transaction, for every registered type of TM1, micro,
TPC-B, TPC-C and SmallBank:

* the flushed ``Step`` columns (lanes, rounds, branch, addresses,
  deferred rows, payloads, undo flags);
* the store effects -- ``physical_state()``, staged inserts, staged
  deletes and staged handle writes;
* the undo logs, the outcome, and the result value *and type*.

For micro, whose generator and vector bodies are two hand-written
functions, this is the direct check that the vector body records what
the generator body yields at width 1.

The last tests pin the edges: an op a lane cannot express is refused,
a contended launch builds no one-lane ``WaveContext``, and a same-type
sub-wave of at most ``NARROW_WIDTH`` lanes runs lane by lane while a
wider one builds exactly one ``WaveContext``. Those routing guards spy
on ``wave``, where ``run_sub_wave`` -- the one owner of the width fork
-- looks its drivers up, for TPL, K-SET and PART alike.
"""

import numpy as np
import pytest

from repro import EngineOptions, GPUTx
from repro.core.backends import wave
from repro.core.backends.wave import (
    HANDLE_BASE,
    NARROW_WIDTH,
    TraceRecorder,
    WaveContext,
    WaveStore,
    run_lane,
)
from repro.core.procedure import ProcedureRegistry, TransactionType
from repro.gpu import ops as op_ir
from repro.storage.catalog import StoreAdapter
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc


def _tm1():
    db = tm1.build_database(1, subscribers_per_sf=40, seed=3)
    specs = tm1.generate_transactions(db, 160, seed=3)
    specs += [
        ("tm1_sync_location", (1, 2)),
        ("tm1_sync_location", (3, 10_000)),  # missing destination
        ("tm1_get_subscriber_data", (10_000,)),  # missing subscriber
    ]
    return db, tm1.CLUSTER_PROCEDURES, specs


def _micro():
    db = micro.build_database(64)
    specs = micro.generate_transactions(40, n_tuples=64, n_branches=3, seed=3)
    return db, micro.build_procedures(3, x=1), specs


def _micro_pairs():
    db = micro.build_database(64, with_index=True)
    specs = [
        (f"micro_pair_{i % 2}", (a, b))
        for i, (a, b) in enumerate(
            [(1, 2), (5, 5), (7, 3), (9, 10_000), (10_000, 4), (3, 7)]
        )
    ]
    return db, micro.build_pair_procedures(2, x=1), specs


def _tpcb():
    db = tpcb.build_database(2, accounts_per_branch=16)
    return db, tpcb.PROCEDURES, tpcb.generate_transactions(db, 40, seed=3)


def _tpcc():
    db = tpcc.build_database(
        1, customers_per_district=4, n_items=16,
        init_orders_per_district=6, seed=3,
    )
    specs = tpcc.generate_transactions(
        db, 60, seed=3, invalid_item_prob=0.3
    )
    return db, tpcc.PROCEDURES, specs


def _tpcc_handle_writes():
    """A district with no undelivered order: the DELIVERY after the
    NEW_ORDER delivers the order that NEW_ORDER staged, so it reads
    staged rows and writes them as handle writes."""
    db = tpcc.build_database(
        1, customers_per_district=4, n_items=16,
        init_orders_per_district=0, seed=3,
    )
    new_order = (0, 2, 1, (1, 2, 3), (0, 0, 0), (4, 5, 6))
    specs = [
        ("tpcc_delivery", (0, 2, 7)),  # nothing to deliver: aborts
        ("tpcc_new_order", new_order),
        ("tpcc_order_status", (0, 2, 1)),
        ("tpcc_delivery", (0, 2, 7)),
        ("tpcc_delivery", (0, 2, 8)),  # the staged row is gone again
        ("tpcc_stock_level", (0, 2, 15)),
    ]
    return db, tpcc.PROCEDURES, specs


def _smallbank():
    db = smallbank.build_database(1, accounts_per_sf=16, seed=3)
    specs = smallbank.generate_transactions(db, 80, seed=3, theta=0.9)
    specs += [
        ("smallbank_balance", (10_000,)),
        ("smallbank_deposit_checking", (2, -5.0)),
        ("smallbank_send_payment", (1, 2, 1e9)),
        ("smallbank_amalgamate", (3, 3)),
    ]
    return db, smallbank.PROCEDURES, specs


WORKLOADS = {
    "tm1": _tm1,
    "micro": _micro,
    "micro_pairs": _micro_pairs,
    "tpcb": _tpcb,
    "tpcc": _tpcc,
    "tpcc_handle_writes": _tpcc_handle_writes,
    "smallbank": _smallbank,
}


def _typed(value):
    """``value`` with the type of every leaf: ``True == 1`` is not a
    match here."""
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_typed(v) for v in value]
    return type(value).__name__, value


def _columns(recorder):
    """The recorder's op shapes as comparable plain values."""

    def arr(a):
        return None if a is None else (str(np.asarray(a).dtype), np.asarray(a).tolist())

    return sorted(
        (
            s.kind, _typed(s.branch), s.amount, s.width, s.table,
            arr(s.lanes), arr(s.rounds), arr(s.addr), arr(s.payload),
            arr(s.undo),
            s.target, arr(s.rows),
        )
        for s in recorder.flush()
    )


def _drive(workload, one_lane, *, capture_undo, record_abort_ops):
    """Run every transaction of ``workload`` as its own one-lane
    sub-wave on one shared store (lane ``i`` for transaction ``i``)."""
    db, procedures, specs = WORKLOADS[workload]()
    registry = ProcedureRegistry()
    registry.register_many(procedures)
    mutating = frozenset().union(*(t.vector_inserts for t in procedures))
    store = WaveStore(StoreAdapter(db), mutating)
    recorder = TraceRecorder(len(specs))
    recorder.undo_capture = np.full(len(specs), capture_undo)
    recorder.round_base[:] = 1 + np.arange(len(specs)) % 3
    outcomes = []
    for lane, (name, params) in enumerate(specs):
        txn_type, tid = registry.get(name), registry.type_id(name)
        if one_lane:
            outcome = run_lane(
                recorder, store, lane, tid, txn_type, params,
                record_abort_ops=record_abort_ops, capture_undo=capture_undo,
            )
        else:
            ctx = WaveContext(
                recorder, store, np.array([lane]), tid, name, [params],
                record_abort_ops=record_abort_ops, capture_undo=capture_undo,
            )
            ctx.set_branch()
            txn_type.vector_body(ctx)
            ctx.close()
            outcome = (
                ctx.committed.tolist()[0], ctx.abort_reason.tolist()[0],
                ctx.results.tolist()[0],
                None if ctx.undo is None else ctx.undo[0],
            )
        outcomes.append((name, _typed(outcome)))
    return {
        "outcomes": outcomes,
        "steps": _columns(recorder),
        "state": db.physical_state(),
        "inserts": _typed(store.pending_inserts),
        "deletes": _typed(store.pending_deletes),
        "handle_writes": _typed(store.pending_handle_writes),
    }


@pytest.mark.parametrize("record_abort_ops", [True, False], ids=["tpl", "part"])
@pytest.mark.parametrize("capture_undo", [False, True], ids=["plain", "undo"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_lane_is_a_one_lane_wave_context(
    workload, capture_undo, record_abort_ops
):
    kw = dict(capture_undo=capture_undo, record_abort_ops=record_abort_ops)
    ours = _drive(workload, True, **kw)
    theirs = _drive(workload, False, **kw)
    for part in ours:
        assert ours[part] == theirs[part], part


def test_the_cases_cover_every_type_and_mutation():
    """What the differential test above must reach to mean anything."""
    seen_types, committed, aborted = set(), set(), set()
    effects = {"inserts": 0, "deletes": 0, "handle_writes": 0, "undo": 0}
    for workload in WORKLOADS:
        run = _drive(workload, True, capture_undo=True, record_abort_ops=True)
        for name, (_, [(_, ok), _reason, _result, (_, undo)]) in run["outcomes"]:
            seen_types.add(name)
            (committed if ok else aborted).add(workload)
            effects["undo"] += bool(undo)
        for part in ("inserts", "deletes", "handle_writes"):
            effects[part] += len(run[part][1])
    registered = {
        t.name
        for build in WORKLOADS.values()
        for t in build()[1]
    }
    assert seen_types == registered
    assert committed == set(WORKLOADS)
    assert aborted >= set(WORKLOADS) - {"micro", "tpcb"}
    assert all(effects.values()), effects


@pytest.mark.parametrize(
    "op, match",
    [
        (op_ir.LockAcquire(0, key=0), "LOCK_ACQUIRE runs only on the interpreter"),
        (op_ir.Write(micro.TABLE, "value", HANDLE_BASE, 1.0), "non-mutating"),
        (op_ir.InsertRow(micro.TABLE, (4, 0.0, 0)), "'odd' inserts into .* vector_inserts"),
    ],
    ids=["lock", "handle-write", "undeclared-insert"],
)
def test_what_a_lane_cannot_express_is_refused(op, match):
    def body():
        yield op

    txn_type = TransactionType(name="odd", body=body, access_fn=lambda p: [])
    store = WaveStore(StoreAdapter(micro.build_database(4)), frozenset())
    with pytest.raises(ValueError, match=match):
        run_lane(
            TraceRecorder(1), store, 0, 0, txn_type, (),
            record_abort_ops=True, capture_undo=False,
        )
    assert store.pending_inserts == []


def _contended_smallbank():
    return (
        smallbank.build_database(1, accounts_per_sf=24, seed=5),
        smallbank.PROCEDURES,
        lambda db: smallbank.generate_transactions(db, 200, seed=5, theta=1.2),
    )


@pytest.mark.parametrize(
    "strategy, build",
    [
        ("tpl", _contended_smallbank),
        ("kset", _contended_smallbank),
        ("part", lambda: (
            tpcb.build_database(2, accounts_per_branch=16),
            tpcb.PROCEDURES,
            lambda db: tpcb.generate_transactions(db, 200, seed=5),
        )),
    ],
    ids=["smallbank-tpl", "smallbank-kset", "tpcb-part"],
)
def test_no_one_lane_wave_context_is_built(monkeypatch, strategy, build):
    """A contended launch grants one thread at a time; those bodies
    run through ``run_lane``, never a one-lane ``WaveContext``."""
    widths, lanes_run = [], []

    class Spy(WaveContext):
        def __init__(self, recorder, store, lanes, *args, **kwargs):
            widths.append(len(lanes))
            super().__init__(recorder, store, lanes, *args, **kwargs)

    def spy_run_lane(*args, **kwargs):
        lanes_run.append(args[2])
        return run_lane(*args, **kwargs)

    monkeypatch.setattr(wave, "WaveContext", Spy)
    monkeypatch.setattr(wave, "run_lane", spy_run_lane)
    db, procedures, generate = build()
    engine = GPUTx(
        db, procedures=procedures,
        options=EngineOptions(backend="vectorized"),
    )
    engine.submit_many(generate(db))
    while len(engine.pool):
        engine.run_bulk(strategy=strategy)
    assert lanes_run, "no one-lane sub-wave ran"
    assert 1 not in widths


def _mixed_width_smallbank():
    """Sub-waves from one lane to a few dozen, under TPL and K-SET."""
    return (
        smallbank.build_database(1, accounts_per_sf=256, seed=5),
        smallbank.PROCEDURES,
        lambda db: smallbank.generate_transactions(db, 300, seed=5, theta=0.6),
    )


def _dispatch(monkeypatch, build, strategy, narrow_width):
    """Drain ``build``'s workload with ``wave.NARROW_WIDTH`` set to
    ``narrow_width``; every sub-wave dispatch in call order: ``("wave",
    lanes)`` for a ``WaveContext``, ``("lane", lane)`` for a
    ``run_lane`` call."""
    events = []

    class Spy(WaveContext):
        def __init__(self, recorder, store, lanes, *args, **kwargs):
            events.append(("wave", tuple(lanes.tolist())))
            super().__init__(recorder, store, lanes, *args, **kwargs)

    def spy_run_lane(*args, **kwargs):
        events.append(("lane", args[2]))
        return run_lane(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(wave, "WaveContext", Spy)
        patch.setattr(wave, "run_lane", spy_run_lane)
        patch.setattr(wave, "NARROW_WIDTH", narrow_width)
        db, procedures, generate = build()
        engine = GPUTx(
            db, procedures=procedures,
            options=EngineOptions(backend="vectorized"),
        )
        engine.submit_many(generate(db))
        while len(engine.pool):
            engine.run_bulk(strategy=strategy)
    return events, db.physical_state()


@pytest.mark.parametrize(
    "strategy, build",
    [
        ("tpl", _mixed_width_smallbank),
        ("kset", _mixed_width_smallbank),
        ("part", lambda: (
            tpcb.build_database(16, accounts_per_branch=16),
            tpcb.PROCEDURES,
            lambda db: tpcb.generate_transactions(db, 200, seed=5),
        )),
    ],
    ids=["smallbank-tpl", "smallbank-kset", "tpcb-part"],
)
def test_narrow_sub_waves_run_lane_by_lane(monkeypatch, strategy, build):
    """With the crossover at 0 every same-type sub-wave builds one
    ``WaveContext``, which exposes the launch's sub-waves in order. At
    ``NARROW_WIDTH`` the same launches dispatch each sub-wave of at most
    that many lanes as one ``run_lane`` per lane, ascending, and each
    wider one as exactly one ``WaveContext`` -- with the same store."""
    sub_waves, state = _dispatch(monkeypatch, build, strategy, 0)
    assert {kind for kind, _ in sub_waves} == {"wave"}
    expected = []
    for _, lanes in sub_waves:
        if len(lanes) <= NARROW_WIDTH:
            expected.extend(("lane", lane) for lane in lanes)
        else:
            expected.append(("wave", lanes))
    events, routed_state = _dispatch(monkeypatch, build, strategy, NARROW_WIDTH)
    assert events == expected
    assert routed_state == state
    widths = {len(lanes) for _, lanes in sub_waves}
    assert min(widths) <= NARROW_WIDTH < max(widths), widths
