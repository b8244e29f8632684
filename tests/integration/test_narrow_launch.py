"""What a narrow launch costs the host, and that it costs nothing else.

The cost replay charges a narrow launch as Python tuples and a wide
one as one event matrix, per-launch state that is pure (a schema's
static addressing, ``warp_layout``) is built once, and an unmasked op
skips its mask. This file pins what that must not change and what it
must keep doing:

* equivalence with the interpreter at narrow widths and at warp/block
  layout boundaries, where the walls in ``tests/property`` sample
  thinly -- ``KernelStats`` field by field, timing, outcomes,
  ``physical_state()`` and the redo stream;
* the replay's shapes nobody reaches by accident, each on both paths
  (``scalar_replay``/``array_replay`` force one): scalar and per-lane
  branch tags in one trace, probe-only and memory-only launches (one
  merged coalescing pass), a launch with no step, sort bounds too wide
  to pack;
* call-count guards, so no clock is involved: no ``numpy.isin``, one
  static addressing per table and one ``warp_layout`` body per thread
  count over 50 launches, and no stale row count after a table grows
  or the ``Database`` under an engine is swapped;
* the replay's memory high-water mark on a 20k-event trace.
"""

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro import (
    ClusterOptions,
    ClusterTx,
    DurabilityConfig,
    EngineOptions,
    GPUTx,
    MigrationPlan,
)
from repro.cluster.durability.wal import (
    REDO_WRITE,
    RedoRecorder,
    redo_bytes,
)
from repro.core.backends import VectorizedBackend, replay
from repro.core.backends.replay import ScheduleOverrides, _pack_sort, replay_kernel
from repro.core.backends.wave import NARROW_WIDTH, TraceRecorder, WaveStore
from repro.gpu import ops as op_ir
from repro.gpu.costmodel import KernelStats
from repro.gpu.simt import OutcomeColumns, SIMTEngine, ThreadTask, warp_layout
from repro.storage.catalog import StoreAdapter
from repro.storage.schema import TableSchema
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc

#: One lane, a few, either side of the lane-by-lane crossover, of a
#: warp (32) and of a block (256).
WIDTHS = tuple(sorted(
    {1, 2, 3, 7, 8, 31, 32, 33, 255, 256, 257, NARROW_WIDTH, NARROW_WIDTH + 1}
))
STATS_FIELDS = tuple(f.name for f in dataclasses.fields(KernelStats))


@pytest.fixture
def scalar_replay(monkeypatch):
    """Every replay in the test groups and charges Python tuples."""
    monkeypatch.setattr(replay, "NARROW_EVENTS", 1 << 62)


@pytest.fixture
def array_replay(monkeypatch):
    """Every replay in the test builds the event matrix."""
    monkeypatch.setattr(replay, "NARROW_EVENTS", -1)


def _engine(db, procedures, backend):
    return GPUTx(
        db,
        procedures=procedures,
        options=EngineOptions(backend=backend),
    )


def _run(build_db, procedures, specs, backend, strategy, **options):
    """Drain ``specs`` through one engine; per bulk, the result and the
    redo entries it streamed."""
    db = build_db()
    engine = _engine(db, procedures, backend)
    recorder = RedoRecorder()
    engine.adapter.attach_recorder(recorder)
    engine.submit_many(specs)
    bulks = []
    while True:
        bulk = engine.run_bulk(strategy=strategy, **options)
        bulks.append((bulk, recorder.cut()))
        if not len(engine.pool):
            return db, bulks, engine


def _canonical(entries):
    """A wave's redo entries as a multiset: order across the cells of
    one conflict-free wave is the backend's own (type at a time against
    round by round); per cell there is one entry, so nothing is lost."""
    return sorted(
        (kind, table, column, int(row), repr(value))
        for kind, table, column, row, value in entries
    )


def _structural(entries):
    """Per table, the inserts and deletes of a redo cut in stream
    order: physical row ids depend on it (the order *across* tables is
    the backend's own -- the replay batches a run of inserts table by
    table)."""
    by_table = {}
    for entry in entries:
        if entry[0] != REDO_WRITE:
            by_table.setdefault(entry[1], []).append(entry)
    return by_table


def assert_equivalent(build_db, procedures, specs, strategy, **options):
    """Both backends agree on everything observable; returns the
    vectorized run's kernel reports."""
    db_i, bulks_i, _ = _run(
        build_db, procedures, specs, "interpreted", strategy, **options
    )
    db_v, bulks_v, engine = _run(
        build_db, procedures, specs, "vectorized", strategy, **options
    )
    assert engine.backend.waves_vectorized > 0
    assert len(bulks_i) == len(bulks_v)
    reports = []
    for (ri, redo_i), (rv, redo_v) in zip(bulks_i, bulks_v):
        assert rv.backend == "vectorized"
        assert ri.strategy == rv.strategy
        assert [
            (r.txn_id, r.committed, r.abort_reason, r.value)
            for r in ri.results
        ] == [
            (r.txn_id, r.committed, r.abort_reason, r.value)
            for r in rv.results
        ]
        assert [t.txn_id for t in ri.deferred] == [
            t.txn_id for t in rv.deferred
        ]
        assert ri.seconds == rv.seconds
        assert ri.breakdown.phases == rv.breakdown.phases
        assert len(ri.kernel_reports) == len(rv.kernel_reports)
        for ki, kv in zip(ri.kernel_reports, rv.kernel_reports):
            for name in STATS_FIELDS:
                assert getattr(ki.stats, name) == getattr(kv.stats, name), name
            assert ki.timing == kv.timing
            assert [
                (o.txn_id, o.type_id, o.committed, o.abort_reason)
                for o in ki.outcomes
            ] == [
                (o.txn_id, o.type_id, o.committed, o.abort_reason)
                for o in kv.outcomes
            ]
        assert redo_bytes(redo_i) == redo_bytes(redo_v)
        assert _canonical(redo_i) == _canonical(redo_v)
        assert _structural(redo_i) == _structural(redo_v)
        reports.extend(rv.kernel_reports)
    assert db_i.physical_state() == db_v.physical_state()
    return reports


def _widths_launched(reports):
    return {r.stats.threads_launched for r in reports}


# ---------------------------------------------------------------------------
# Equivalence at narrow widths and layout boundaries.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", WIDTHS)
class TestWidths:
    @pytest.mark.usefixtures("scalar_replay")
    def test_micro_kset_wave(self, n):
        """One conflict-free wave of ``n`` threads over four branch
        tags: a memory-only launch (no probe)."""
        reports = assert_equivalent(
            lambda: micro.build_database(max(n, 8)),
            micro.build_procedures(4),
            [(f"micro_{i % 4}", (i,)) for i in range(n)],
            "kset",
        )
        assert _widths_launched(reports) == {n}

    @pytest.mark.usefixtures("array_replay")
    def test_micro_kset_wave_on_the_event_matrix(self, n):
        self.test_micro_kset_wave(n)

    def test_tm1_part_sweep(self, n):
        """``n`` partitions, up to three transactions deep, all seven
        PART-able types: call-forwarding inserts and deletes move the
        table's row count under the reads of the same launch."""
        specs = []
        for s in range(n):
            sf, start = 1 + s % 4, (0, 8, 16)[s % 3]
            first = (
                ("tm1_get_subscriber_data", (s,)),
                ("tm1_insert_call_forwarding", (s, sf, start, start + 4, "7" * 15)),
                ("tm1_get_access_data", (s, 1 + s % 4)),
                ("tm1_update_subscriber_data", (s, bool(s % 2), sf, s % 256)),
                ("tm1_delete_call_forwarding", (s, sf, start)),
                ("tm1_update_location", (s, 1000 + s)),
                ("tm1_get_new_destination", (s, sf, start, start + 1)),
            )[s % 7]
            specs.append(first)
            if s % 2:
                specs.append(
                    ("tm1_get_new_destination", (s, sf, start, start + 1))
                )
            if s % 7 == 1:
                specs.append(("tm1_delete_call_forwarding", (s, sf, start)))
        reports = assert_equivalent(
            lambda: tm1.build_database(1, subscribers_per_sf=max(n, 8), seed=3),
            tm1.PROCEDURES,
            specs,
            "part",
        )
        assert _widths_launched(reports) == {n}

    def test_tpcb_part_history_inserts(self, n):
        """``n`` branch partitions, every committed transaction stages
        a HISTORY insert; an unknown account aborts before it."""
        per_branch = 4
        specs = []
        for b in range(n):
            for k in range(1 + b % 3):
                account = 10**9 if (b + k) % 5 == 4 else b * per_branch + k
                specs.append(
                    (
                        "tpcb_profile",
                        (account, b * tpcb.TELLERS_PER_BRANCH + k, b,
                         float(10 * k - 7)),
                    )
                )
        reports = assert_equivalent(
            lambda: tpcb.build_database(n, accounts_per_branch=per_branch),
            tpcb.PROCEDURES,
            specs,
            "part",
        )
        assert _widths_launched(reports) == {n}

    def test_smallbank_tpl(self, n):
        """One thread per transaction behind counter locks; neighbours
        share a customer, so gates are contended."""
        accounts = max(n + 1, 8)
        specs = []
        for i in range(n):
            a, b = i % accounts, (i + 1) % accounts
            specs.append(
                (
                    ("smallbank_balance", (a,)),
                    ("smallbank_deposit_checking", (a, 5.0 + i)),
                    ("smallbank_send_payment", (a, b, 3.0)),
                    ("smallbank_amalgamate", (a, b)),
                    ("smallbank_write_check", (a, 4000.0)),
                    ("smallbank_transact_savings", (a, -9000.0)),
                )[i % 6]
            )
        reports = assert_equivalent(
            lambda: smallbank.build_database(1, accounts_per_sf=accounts, seed=2),
            smallbank.PROCEDURES,
            specs,
            "tpl",
        )
        assert _widths_launched(reports) == {n}

    def test_tpcc_kset_delivery_after_new_order(self, n):
        """A wave of ``n`` NEW_ORDERs (one per district, its own item)
        and then the DELIVERYs that consume what they inserted."""
        warehouses = -(-n // tpcc.DISTRICTS)
        districts = [
            (i // tpcc.DISTRICTS,
             1 + i % tpcc.DISTRICTS)
            for i in range(n)
        ]
        specs = [
            ("tpcc_new_order", (w, d, 0, (d,), (w,), (1 + d % 3,)))
            for w, d in districts
        ]
        # Two initial orders per district are undelivered: the third
        # delivery reaches the order this bulk's NEW_ORDER created.
        for carrier in (1, 2, 3):
            specs += [("tpcc_delivery", (w, d, carrier)) for w, d in districts]
        reports = assert_equivalent(
            lambda: tpcc.build_database(
                warehouses, customers_per_district=4, n_items=16,
                init_orders_per_district=6, seed=11,
            ),
            tpcc.PROCEDURES,
            specs,
            "kset",
        )
        assert _widths_launched(reports) == {n}


@pytest.mark.parametrize("n_warehouses", (1, 2, 3, 7, 33))
def test_tpcc_part_delivery_in_the_new_orders_launch(n_warehouses):
    """PART runs a warehouse's NEW_ORDERs and the DELIVERYs that write
    and delete the rows they staged in one launch (handle writes)."""
    specs = []
    for w in range(n_warehouses):
        specs += [
            ("tpcc_new_order", (w, 1, k % 4, (1, 2), (w, w), (1, 1)))
            for k in range(2)
        ]
        specs += [("tpcc_delivery", (w, 1, 7))] * 4
        specs.append(("tpcc_order_status", (w, 1, 0)))
    reports = assert_equivalent(
        lambda: tpcc.build_database(
            n_warehouses, customers_per_district=4, n_items=16,
            init_orders_per_district=6, seed=11,
        ),
        tpcc.PROCEDURES,
        specs,
        "part",
    )
    assert _widths_launched(reports) == {n_warehouses}


@pytest.mark.usefixtures("scalar_replay")
@pytest.mark.parametrize("n", (1, 5, 40))
def test_probe_only_launch(n):
    """TM1's name lookup is SET_BRANCH + one probe: every coalesced
    access of the launch is a probe's two words."""
    reports = assert_equivalent(
        lambda: tm1.build_database(1, subscribers_per_sf=64, seed=3),
        tm1.PROCEDURES,
        [("tm1_lookup_sub_nbr", (f"{s:015d}",)) for s in range(n)],
        "kset",
    )
    assert _widths_launched(reports) == {n}


@pytest.mark.usefixtures("array_replay")
@pytest.mark.parametrize("n", (1, 5, 40))
def test_probe_only_launch_on_the_event_matrix(n):
    test_probe_only_launch(n)


# ---------------------------------------------------------------------------
# Replay shapes.
# ---------------------------------------------------------------------------
def _bare_launch(n_threads):
    store = WaveStore(StoreAdapter(micro.build_database(8)), frozenset())
    outcomes = OutcomeColumns(
        list(range(n_threads)), [0] * n_threads, [True] * n_threads,
        [""] * n_threads, [None] * n_threads,
    )
    return store, SIMTEngine(), outcomes


def _returns_at_once():
    return 7
    yield  # pragma: no cover - makes this a generator


@pytest.mark.usefixtures("scalar_replay")
@pytest.mark.parametrize("n_threads", (0, 1, 33))
def test_zero_step_launch(n_threads):
    """Threads that issue no op: the interpreter reports an empty
    kernel, and so does the replay of an empty trace."""
    store, engine, outcomes = _bare_launch(n_threads)
    report = replay_kernel(TraceRecorder(n_threads), store, engine, outcomes)
    twin = engine.launch(
        [ThreadTask(i, 0, _returns_at_once()) for i in range(n_threads)],
        store.adapter,
    )
    for name in STATS_FIELDS:
        assert getattr(report.stats, name) == getattr(twin.stats, name), name
    assert report.timing == twin.timing
    assert report.stats.ops_executed == 0


@pytest.mark.usefixtures("array_replay")
@pytest.mark.parametrize("n_threads", (0, 1, 33))
def test_zero_step_launch_on_the_event_matrix(n_threads):
    test_zero_step_launch(n_threads)


def _synthetic_trace(n_threads, first_round=1):
    """A PART-shaped trace, ten ops per thread from ``first_round`` on:
    per-lane branch tags on the leading COMPUTE/SET_BRANCH, then two
    types' scalar-tagged probe, reads, compute and write."""
    recorder = TraceRecorder(n_threads)
    recorder.round_base[:] = first_round
    lanes = np.arange(n_threads, dtype=np.int64)
    untagged = np.full(n_threads, -1, dtype=np.int64)
    recorder.record(op_ir.COMPUTE, lanes, untagged.copy(), amount=16)
    recorder.record(op_ir.SET_BRANCH, lanes, untagged.copy())
    for type_id in (1, 2):
        mine = lanes[type_id - 1 :: 2]
        recorder.record(op_ir.SET_BRANCH, mine, type_id)
        base = (mine * 7919) % (1 << 20) * 16
        recorder.record(
            op_ir.INDEX_PROBE, mine, type_id,
            addr=np.stack([base, base + 8], axis=1),
        )
        for col in range(4):
            recorder.record(
                op_ir.READ, mine, type_id,
                addr=(1 << 30) + col * (1 << 22) + mine * 8, width=8,
            )
        recorder.record(op_ir.COMPUTE, mine, type_id, amount=3)
        recorder.record(
            op_ir.WRITE, mine, type_id, addr=(1 << 31) + mine * 4, width=4
        )
    return recorder


@pytest.mark.usefixtures("scalar_replay")
def test_mixed_scalar_and_per_lane_branch_tags():
    """Per-lane tags (all -1) and scalar tags in one trace group like
    the interpreter's ``(branch, kind)`` split: the two leading steps
    are one group per warp, every typed step two."""
    n = 64
    store, engine, outcomes = _bare_launch(n)
    report = replay_kernel(_synthetic_trace(n), store, engine, outcomes)
    assert report.stats.ops_executed == 10 * n
    assert report.stats.rounds == 10
    # Two warps; rounds 3..10 split each warp into two type groups.
    assert report.stats.divergent_serializations == 2 * 8
    # Per warp and type: one probe, four reads, one write.
    assert report.stats.mem_instructions[0] == 2 * 2 * 6


@pytest.mark.usefixtures("array_replay")
def test_mixed_scalar_and_per_lane_branch_tags_on_the_event_matrix():
    test_mixed_scalar_and_per_lane_branch_tags()


def test_replay_memory_high_water_mark():
    """Filling one preallocated event matrix and dropping it after the
    sorting gather keeps the replay's peak at the parent's: the parent
    (ten event arrays, ten sorted copies) peaked at 5,104,592 traced
    bytes on this 20,000-event trace; stacking the sorted columns out
    of a second full copy read +9% ``peak_rss_mb`` on ``bulk_wide``."""
    parent_peak = 5_104_592
    n = 2000
    store, engine, outcomes = _bare_launch(n)
    recorder = _synthetic_trace(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        report = replay_kernel(recorder, store, engine, outcomes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.stats.ops_executed == 20_000
    assert peak - before <= 1.1 * parent_peak


def test_pack_sort_falls_back_to_lexsort_past_62_bits():
    big = 1 << 40
    a = np.array([big, 1, big, 0], dtype=np.int64)
    b = np.array([5, big, 3, big], dtype=np.int64)
    expected = np.lexsort((b, a))
    # 41 + 41 bits do not pack: a shifted key would wrap and misorder.
    assert _pack_sort((a, b), (big, big)).tolist() == expected.tolist()
    assert expected.tolist() == [3, 1, 2, 0]
    # The same keys under bounds that do pack agree with lexsort too.
    small_a, small_b = a % 7, b % 7
    assert (
        _pack_sort((small_a, small_b), (6, 6)).tolist()
        == np.lexsort((small_b, small_a)).tolist()
    )


@pytest.mark.parametrize("path", ("scalar_replay", "array_replay"))
def test_round_horizon_too_wide_to_pack(path, request):
    """A lock schedule spanning 2**55 rounds: the event matrix's sort
    keys do not pack into 62 bits (lexsort), and both paths charge the
    trace as if it started at round 1."""
    request.getfixturevalue(path)
    n = 64
    store, engine, outcomes = _bare_launch(n)
    near = _synthetic_trace(n)
    far = _synthetic_trace(n, first_round=1 << 55)
    layout = warp_layout(n, engine.block_size, engine.spec)
    zeros = np.zeros(engine.spec.num_sms)

    def schedule(start):
        return ScheduleOverrides(
            layout=layout, rounds=start + 9,
            warp_last_round=np.full(len(layout[0]), start + 9, dtype=np.int64),
            issue_cycles=zeros, atomic_cycles=zeros,
            mem_transactions=zeros.astype(np.int64),
            mem_bytes=zeros.astype(np.int64),
            spin_iterations=0, atomic_conflicts=0, divergent_serializations=0,
        )

    wide = replay_kernel(far, store, engine, outcomes, schedule(1 << 55))
    narrow = replay_kernel(near, store, engine, outcomes, schedule(1))
    assert wide.stats.rounds == (1 << 55) + 9
    for name in STATS_FIELDS:
        if name != "rounds":
            assert getattr(wide.stats, name) == getattr(narrow.stats, name), name


# ---------------------------------------------------------------------------
# Call-count guards.
# ---------------------------------------------------------------------------
def _tm1_db(n_subs=64):
    return tm1.build_database(1, subscribers_per_sf=n_subs, seed=3)


def _tm1_mix(db, n, seed, *names):
    return tm1.generate_transactions(
        db, n, seed=seed, mix=[(name, 1.0) for name in names]
    )


def test_no_launch_calls_numpy_isin(monkeypatch):
    """``numpy.isin`` raises for the length of every vectorized launch
    (bulk generation outside it, the K-SET extractor, may keep it)."""
    real_isin = np.isin
    launched = Counter()

    def boom(*_args, **_kwargs):
        raise AssertionError("np.isin inside a launch")

    def without_isin(name):
        launch = getattr(VectorizedBackend, name)

        def guarded(self, *args, **kwargs):
            launched[name] += 1
            np.isin = boom
            try:
                return launch(self, *args, **kwargs)
            finally:
                np.isin = real_isin

        monkeypatch.setattr(VectorizedBackend, name, guarded)

    for name in ("launch_partitions", "launch_wave", "launch_locked"):
        without_isin(name)

    db = _tm1_db()
    engine = _engine(db, tm1.PROCEDURES, "vectorized")
    engine.submit_many(
        _tm1_mix(
            db, 120, 5,
            "tm1_insert_call_forwarding", "tm1_delete_call_forwarding",
            "tm1_get_new_destination", "tm1_get_subscriber_data",
        )
    )
    part = engine.run_bulk(strategy="part")
    # Inserts and deletes took the event-order path too.
    assert db.table(tm1.CALL_FORWARDING).n_rows > _tm1_db().table(
        tm1.CALL_FORWARDING
    ).n_rows
    assert part.committed > 0

    wave = _engine(
        micro.build_database(64), micro.build_procedures(4), "vectorized"
    )
    wave.submit_many([(f"micro_{i % 4}", (i,)) for i in range(40)])
    assert wave.run_bulk(strategy="kset").committed == 40

    sb = smallbank.build_database(1, accounts_per_sf=16, seed=2)
    locked = _engine(sb, smallbank.PROCEDURES, "vectorized")
    locked.submit_many(smallbank.generate_transactions(sb, 60, seed=4))
    assert len(locked.run_bulk(strategy="tpl").results) == 60
    assert all(launched[name] for name in (
        "launch_partitions", "launch_wave", "launch_locked"
    )), launched
    assert np.isin is real_isin


def test_fifty_launches_build_pure_state_once(monkeypatch):
    """Tables that do not grow: each addressed table's static layout is
    computed once for all 50 launches, ``warp_layout``'s body runs once
    per distinct thread count."""
    db = _tm1_db(256)
    engine = _engine(db, tm1.PROCEDURES, "vectorized")
    built = Counter()
    build = TableSchema.device_columns.func

    def counted(schema):
        built[schema.name] += 1
        return build(schema)

    monkeypatch.setattr(TableSchema.device_columns, "func", counted)
    warp_layout.cache_clear()

    widths = set()
    for launch in range(50):
        engine.submit_many(
            _tm1_mix(
                db, 5 + launch % 9, 100 + launch,
                "tm1_get_subscriber_data", "tm1_get_access_data",
                "tm1_update_subscriber_data", "tm1_get_new_destination",
            )
        )
        result = engine.run_bulk(strategy="part")
        (report,) = result.kernel_reports
        widths.add(report.stats.threads_launched)
    assert engine.backend.waves_vectorized == 50
    assert built and set(built.values()) == {1}, built
    assert built.keys() <= {
        tm1.SUBSCRIBER, tm1.ACCESS_INFO, tm1.SPECIAL_FACILITY,
        tm1.CALL_FORWARDING,
    }
    info = warp_layout.cache_info()
    assert info.misses == len(widths) < 50
    assert info.hits >= 50 - len(widths)
    assert info.maxsize is not None  # bounded: K-SET cycles through widths


def _kernel_stats(result):
    return [
        {name: getattr(r.stats, name) for name in STATS_FIELDS}
        for r in result.kernel_reports
    ]


def test_next_launch_sees_the_grown_table():
    """insert -> read -> delete -> read on one engine: the launch after
    a committed insert addresses ``call_forwarding`` at its new row
    count, exactly as the interpreter twin does."""
    runs = {}
    for backend in ("interpreted", "vectorized"):
        db = _tm1_db()
        engine = _engine(db, tm1.PROCEDURES, backend)
        rows, trail = [db.table(tm1.CALL_FORWARDING).n_rows], []
        for seed, name in (
            (11, "tm1_insert_call_forwarding"),
            (12, "tm1_get_new_destination"),
            (13, "tm1_delete_call_forwarding"),
            (14, "tm1_get_new_destination"),
        ):
            engine.submit_many(_tm1_mix(db, 60, seed, name))
            result = engine.run_bulk(strategy="part")
            trail.append((result.seconds, _kernel_stats(result)))
            rows.append(db.table(tm1.CALL_FORWARDING).n_rows)
        runs[backend] = (rows, trail, db.physical_state())
    assert runs["vectorized"] == runs["interpreted"]
    rows = runs["vectorized"][0]
    assert rows[1] > rows[0]  # the insert bulk grew the table


def test_swapped_database_is_addressed_afresh(monkeypatch):
    """A 4-shard cluster across a migration and a shard recovery, both
    of which put a different ``Database`` under a live engine: clock
    and ``KernelStats`` of every sub-bulk equal the interpreter
    cluster's."""
    launches = []
    execute_bulk = GPUTx.execute_bulk

    def recording(self, *args, **kwargs):
        result = execute_bulk(self, *args, **kwargs)
        launches.append((result.seconds, _kernel_stats(result)))
        return result

    monkeypatch.setattr(GPUTx, "execute_bulk", recording)

    runs = {}
    for backend in ("interpreted", "vectorized"):
        del launches[:]
        source = _tm1_db(256)
        cluster = ClusterTx(
            source,
            procedures=tm1.CLUSTER_PROCEDURES,
            n_shards=4,
            router="range",
            options=ClusterOptions(
                engine=EngineOptions(backend=backend),
                durability=DurabilityConfig(
                    checkpoint_interval=100, n_replicas=1
                ),
            ),
        )
        clock = []

        def bulk(seed, *names):
            cluster.submit_many(_tm1_mix(source, 80, seed, *names))
            clock.append(cluster.run_bulk().seconds)

        bulk(21, "tm1_insert_call_forwarding")
        bulk(22, "tm1_get_new_destination")
        lo, hi = cluster.router.ranges_of(0)[0]
        moved = cluster.migrate(
            MigrationPlan(src=0, dst=3, key_lo=(lo + hi) // 2, key_hi=hi)
        ).moved_rows
        bulk(23, "tm1_insert_call_forwarding", "tm1_get_new_destination")
        cluster.failover.kill(1)
        assert cluster.recover_shard(1).verified
        bulk(24, "tm1_delete_call_forwarding", "tm1_get_new_destination")
        bulk(25, "tm1_get_new_destination", "tm1_update_location")
        runs[backend] = (
            clock, moved, list(launches),
            [shard.db.physical_state() for shard in cluster.shards],
        )
    assert runs["vectorized"][2]
    assert runs["vectorized"] == runs["interpreted"]
