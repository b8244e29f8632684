"""Property-based durability tests (Definition 1 determinism).

For random workloads and random crash points, checkpoint + WAL replay
must reproduce the *exact* final store state and commit/abort set of
an uninterrupted run: Definition 1 makes committed bulks equivalent to
a serial timestamp-order execution, so recovery by deterministic
replay cannot be observable -- not in the stores, not in the outcomes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    ClusterOptions,
    ClusterTx,
    DurabilityConfig,
    EngineOptions,
    GPUTx,
)
from repro.cluster.durability.wal import RedoRecorder
from repro.core.tx_logging import apply_redo, redo_bytes, undo_bytes
from repro.storage.catalog import StoreAdapter

from tests.conftest import BANK_VECTOR_PROCEDURES, build_bank_db
from tests.integration.test_cluster import (
    LEDGER_PROCEDURES,
    LEDGER_VECTOR_PROCEDURES,
    build_ledger_db,
    ledger_specs,
    serial_ledger_state,
)
from tests.property.test_tpl_equivalence import BANK_ACCOUNTS, _bank_specs

N_ACCOUNTS = 24


def run_ledger_cluster(bulks, n_shards, checkpoint_interval, kill=None,
                       procedures=None, engine=None):
    cluster = ClusterTx(
        build_ledger_db(N_ACCOUNTS),
        procedures=LEDGER_PROCEDURES if procedures is None else procedures,
        n_shards=n_shards,
        options=ClusterOptions(
            engine=engine or EngineOptions(),
            durability=DurabilityConfig(
                checkpoint_interval=checkpoint_interval, n_replicas=1,
            ),
        ),
    )
    if kill is not None:
        shard, bulk, wave = kill
        cluster.failover.schedule_kill(shard, bulk=bulk, wave=wave)
    reports = []
    for bulk in bulks:
        cluster.submit_many(bulk)
        while len(cluster.pool):
            result = cluster.run_bulk(strategy="kset")
            reports.extend(result.failovers)
    return cluster, reports


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_crash_replay_reproduces_uninterrupted_run(data):
    seed = data.draw(st.integers(0, 2**20), label="seed")
    n_shards = data.draw(st.sampled_from([2, 3, 4]), label="n_shards")
    n_bulks = data.draw(st.integers(2, 5), label="n_bulks")
    bulk_size = data.draw(st.integers(4, 30), label="bulk_size")
    cross = data.draw(st.sampled_from([0.0, 0.2, 0.5]), label="cross")
    interval = data.draw(st.sampled_from([1, 2, 4]), label="ckpt_interval")
    kill_shard = data.draw(
        st.integers(0, n_shards - 1), label="kill_shard"
    )
    kill_bulk = data.draw(st.integers(0, n_bulks - 1), label="kill_bulk")
    kill_wave = data.draw(st.integers(0, 3), label="kill_wave")

    rng = np.random.default_rng(seed)
    bulks = [
        ledger_specs(rng, bulk_size, N_ACCOUNTS, cross)
        for _ in range(n_bulks)
    ]
    # A deterministic flush bulk guarantees a wave boundary after any
    # crash point, so the scheduled kill always fires -- even one
    # aimed past the last wave of the last random bulk.
    bulks.append([("deposit", (0, 1))])
    all_specs = [spec for bulk in bulks for spec in bulk]

    reference, ref_reports = run_ledger_cluster(bulks, n_shards, interval)
    assert ref_reports == []

    crashed, reports = run_ledger_cluster(
        bulks, n_shards, interval,
        kill=(kill_shard, kill_bulk, kill_wave),
    )
    # The scheduled kill always fires (late points fire at the next
    # wave boundary), and the promotion verified byte-identity against
    # the shard's last durable state.
    assert [r.shard for r in reports] == [kill_shard]
    assert reports[0].verified

    # Exact final store state ...
    assert crashed.logical_state() == reference.logical_state()
    assert crashed.logical_state() == serial_ledger_state(
        all_specs, N_ACCOUNTS
    )
    # ... and the exact commit/abort set.
    assert len(crashed.results) == len(all_specs)
    for txn_id in range(len(all_specs)):
        ref = reference.results.get(txn_id)
        got = crashed.results.get(txn_id)
        assert got is not None
        assert got.committed == ref.committed
        assert got.abort_reason == ref.abort_reason


# ---------------------------------------------------------------------------
# Undo/WAL capture parity: the vectorized backend's bulk before-image
# gathers and redo streaming must be indistinguishable -- byte for byte
# -- from the interpreter's per-row capture.
# ---------------------------------------------------------------------------


def _capture_run(specs, backend, strategy):
    """Run an abort-heavy bank mix with a RedoRecorder attached.

    Returns (physical_state, per-bulk redo cuts, per-bulk undo logs).
    The undo log of every kernel outcome is compared entry-for-entry:
    vectorized capture journals before-images with handle-encoded rows
    during the wave, so equality here also proves the post-replay
    handle->row decoding (``WaveStore.logged``, through ``row_of``) is
    exact.
    """
    db = build_bank_db(BANK_ACCOUNTS)
    engine = GPUTx(
        db,
        procedures=BANK_VECTOR_PROCEDURES,
        options=EngineOptions(backend=backend),
    )
    recorder = RedoRecorder()
    engine.adapter.attach_recorder(recorder)
    engine.submit_many(specs)
    cuts, undo = [], []
    while True:
        bulk = engine.run_bulk(strategy=strategy)
        cuts.append(recorder.cut())
        undo.append(
            [
                (o.txn_id, o.committed, tuple(map(tuple, o.undo)))
                for rep in (bulk.kernel_reports or [])
                for o in rep.outcomes
            ]
        )
        if not len(engine.pool):
            break
    return db.physical_state(), cuts, undo


def _norm_value(value):
    if isinstance(value, tuple):
        return tuple(_norm_value(v) for v in value)
    if isinstance(value, (bool, str, bytes)) or value is None:
        return value
    return int(value)


def _canonical(entries):
    """Canonicalised entry multiset of one redo cut.

    Entry *order* inside a wave is an implementation detail (the
    vectorized backend scatters type-at-a-time where the interpreter
    interleaves rounds); what durability relies on is that the wave's
    entry multiset and its replay outcome agree -- the latter is
    checked separately by :func:`_replay_states`.
    """
    return sorted(
        (kind, table, column, int(row), _norm_value(value))
        for kind, table, column, row, value in entries
    )


def _replay_states(cuts):
    """Physical state after replaying each successive redo cut."""
    db = build_bank_db(BANK_ACCOUNTS)
    adapter = StoreAdapter(db)
    states = []
    for cut in cuts:
        apply_redo(adapter, cut)
        adapter.apply_batch()
        states.append(db.physical_state())
    return states


@settings(
    max_examples=170,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(specs=_bank_specs(), strategy=st.sampled_from(["tpl", "kset"]))
def test_redo_undo_capture_parity(specs, strategy):
    """WAL redo cuts and undo logs are byte-identical across backends,
    wave by wave -- including abort rollback images.  Undo logs match
    entry-for-entry; redo cuts match in size (wire bytes), in content
    (canonicalised multiset), and -- the property recovery rests on --
    in what each successive cut replays to."""
    state_i, cuts_i, undo_i = _capture_run(specs, "interpreted", strategy)
    state_v, cuts_v, undo_v = _capture_run(specs, "vectorized", strategy)
    assert undo_v == undo_i
    assert [
        [undo_bytes(entries) for _, _, entries in bulk] for bulk in undo_v
    ] == [[undo_bytes(entries) for _, _, entries in bulk] for bulk in undo_i]
    assert [redo_bytes(c) for c in cuts_v] == [redo_bytes(c) for c in cuts_i]
    assert [_canonical(c) for c in cuts_v] == [_canonical(c) for c in cuts_i]
    assert _replay_states(cuts_v) == _replay_states(cuts_i)
    assert state_v == state_i
    assert _replay_states(cuts_v)[-1] == state_v


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_cluster_wal_parity_across_backends(data):
    """Per-shard WALs -- record framing, outcome triples, redo images,
    lifetime byte counters -- match between backend runs."""
    seed = data.draw(st.integers(0, 2**20), label="seed")
    n_shards = data.draw(st.sampled_from([2, 3]), label="n_shards")
    n_bulks = data.draw(st.integers(1, 3), label="n_bulks")
    bulk_size = data.draw(st.integers(4, 24), label="bulk_size")
    interval = data.draw(st.sampled_from([1, 2, 4]), label="ckpt_interval")

    rng = np.random.default_rng(seed)
    # cross=0.5 keeps the reconcile (non-two-phase, undo-exercising)
    # share high.
    bulks = [
        ledger_specs(rng, bulk_size, N_ACCOUNTS, 0.5) for _ in range(n_bulks)
    ]
    all_specs = [spec for bulk in bulks for spec in bulk]

    reference, _ = run_ledger_cluster(bulks, n_shards, interval)
    vectorized, _ = run_ledger_cluster(
        bulks, n_shards, interval,
        procedures=LEDGER_VECTOR_PROCEDURES,
        engine=EngineOptions(backend="vectorized"),
    )

    def wal_image(cluster):
        image = []
        for unit in cluster.durability.units:
            records = [
                (
                    r.lsn, r.shard, r.bulk_id, r.wave, r.ts_lo, r.ts_hi,
                    r.strategy, r.outcomes, _canonical(r.redo),
                    r.record_bytes(),
                )
                for r in unit.wal
            ]
            image.append(
                (unit.wal.appended_records, unit.wal.appended_bytes, records)
            )
        return image

    assert wal_image(vectorized) == wal_image(reference)
    assert vectorized.logical_state() == reference.logical_state()
    assert vectorized.logical_state() == serial_ledger_state(
        all_specs, N_ACCOUNTS
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_crash_replay_under_vectorized_backend(data):
    """Crash-point sweep with vectorized capture: a WAL written by the
    vectorized backend recovers to the interpreter run's exact state."""
    seed = data.draw(st.integers(0, 2**20), label="seed")
    n_shards = data.draw(st.sampled_from([2, 3]), label="n_shards")
    n_bulks = data.draw(st.integers(2, 4), label="n_bulks")
    bulk_size = data.draw(st.integers(4, 20), label="bulk_size")
    interval = data.draw(st.sampled_from([1, 2]), label="ckpt_interval")
    kill_shard = data.draw(st.integers(0, n_shards - 1), label="kill_shard")
    kill_bulk = data.draw(st.integers(0, n_bulks - 1), label="kill_bulk")
    kill_wave = data.draw(st.integers(0, 3), label="kill_wave")

    rng = np.random.default_rng(seed)
    bulks = [
        ledger_specs(rng, bulk_size, N_ACCOUNTS, 0.5) for _ in range(n_bulks)
    ]
    bulks.append([("deposit", (0, 1))])
    all_specs = [spec for bulk in bulks for spec in bulk]

    reference, _ = run_ledger_cluster(bulks, n_shards, interval)
    crashed, reports = run_ledger_cluster(
        bulks, n_shards, interval,
        kill=(kill_shard, kill_bulk, kill_wave),
        procedures=LEDGER_VECTOR_PROCEDURES,
        engine=EngineOptions(backend="vectorized"),
    )
    assert [r.shard for r in reports] == [kill_shard]
    assert reports[0].verified

    assert crashed.logical_state() == reference.logical_state()
    assert crashed.logical_state() == serial_ledger_state(
        all_specs, N_ACCOUNTS
    )
    for txn_id in range(len(all_specs)):
        ref = reference.results.get(txn_id)
        got = crashed.results.get(txn_id)
        assert got is not None
        assert got.committed == ref.committed
        assert got.abort_reason == ref.abort_reason
