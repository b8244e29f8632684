"""Property: telemetry only observes, it never participates.

For random TM1 bulks on either backend and either strategy, running
with a telemetry session installed must leave *everything observable*
byte-identical to running without one: per-transaction outcomes
(commit/abort, reason, value), the deferral sets, the simulated clock
of every bulk, and the final ``Database.physical_state()``. A tracer
that perturbed the clock -- say by rounding through microseconds, or
by charging an extra phase -- would break the paper's reproduced
figures silently; this property pins it to pure observation.

The same holds one layer up, where it once did not: an elastic cluster
behind the serve loop decides its migrations from the serve loop's own
admission depths, so it performs the same migrations -- and serves,
sheds and ends up the same -- whether or not anyone is watching.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.telemetry as telemetry
from repro import (
    AdaptiveBulkFormer,
    AdmissionController,
    ClusterOptions,
    ClusterTx,
    ElasticConfig,
    EngineOptions,
    GPUTx,
    ServeRuntime,
    SLOConfig,
)
from repro.workloads import smallbank, tm1

TM1_SUBS = 40


def _tm1_specs():
    s_id = st.integers(0, TM1_SUBS - 1)
    sf = st.integers(1, 4)
    start = st.sampled_from([0, 8, 16])
    txn = st.one_of(
        st.tuples(st.just("tm1_get_subscriber_data"), st.tuples(s_id)),
        st.tuples(
            st.just("tm1_update_subscriber_data"),
            st.tuples(s_id, st.booleans(), sf, st.integers(0, 255)),
        ),
        st.tuples(
            st.just("tm1_update_location"),
            st.tuples(s_id, st.integers(1, 1 << 20)),
        ),
        st.tuples(
            st.just("tm1_insert_call_forwarding"),
            st.tuples(s_id, sf, start, st.integers(1, 24), st.just("x" * 15)),
        ),
        st.tuples(
            st.just("tm1_delete_call_forwarding"), st.tuples(s_id, sf, start)
        ),
    )
    return st.lists(txn, min_size=1, max_size=40)


def _run(specs, backend, strategy, traced, **options):
    db = tm1.build_database(1, subscribers_per_sf=TM1_SUBS, seed=3)
    engine = GPUTx(
        db, procedures=tm1.PROCEDURES, options=EngineOptions(backend=backend)
    )
    engine.submit_many(specs)

    def _drain():
        bulks = [engine.run_bulk(strategy=strategy, **options)]
        while len(engine.pool):
            bulks.append(engine.run_bulk(strategy=strategy, **options))
        return bulks

    if traced:
        with telemetry.session() as tel:
            bulks = _drain()
        # The session must actually have observed the run.
        assert tel.tracer.spans
        assert telemetry.validate_chrome_trace(tel.trace()) == []
    else:
        bulks = _drain()
    observable = [
        (
            [(r.txn_id, r.committed, r.abort_reason, r.value)
             for r in b.results],
            sorted(t.txn_id for t in b.deferred),
            b.seconds,
            b.breakdown.phases,
        )
        for b in bulks
    ]
    return db.physical_state(), observable


def _assert_transparent(specs, backend, strategy, **options):
    state_off, obs_off = _run(specs, backend, strategy, False, **options)
    state_on, obs_on = _run(specs, backend, strategy, True, **options)
    assert obs_on == obs_off
    assert state_on == state_off


class TestTracingTransparency:
    @settings(max_examples=15, deadline=None)
    @given(
        specs=_tm1_specs(),
        backend=st.sampled_from(["interpreted", "vectorized"]),
        max_rounds=st.sampled_from([None, 1]),
    )
    def test_kset(self, specs, backend, max_rounds):
        _assert_transparent(
            specs, backend, "kset", max_rounds=max_rounds
        )

    @settings(max_examples=15, deadline=None)
    @given(
        specs=_tm1_specs(),
        backend=st.sampled_from(["interpreted", "vectorized"]),
        partition_size=st.sampled_from([1, 8]),
    )
    def test_part(self, specs, backend, partition_size):
        _assert_transparent(
            specs, backend, "part", partition_size=partition_size
        )


# ---------------------------------------------------------------------------
# A served elastic cluster: control must not read observability.
# ---------------------------------------------------------------------------
N_SHARDS = 4
SHARD_KEYS = 250  # SmallBank SF 1: 1000 customers over 4 range shards


def _skewed_arrivals(seed, hot_shard, n=400, rate_tps=150_000.0):
    """Single-customer SmallBank ops, 90% of them on one shard's range
    -- offered faster than that shard alone can drain."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate_tps, n))
    arrivals = []
    for t in times.tolist():
        if rng.random() < 0.9:
            customer = hot_shard * SHARD_KEYS + int(rng.integers(SHARD_KEYS))
        else:
            customer = int(rng.integers(N_SHARDS * SHARD_KEYS))
        if rng.random() < 0.8:
            spec = ("smallbank_deposit_checking",
                    (customer, float(rng.integers(1, 100))))
        else:
            spec = ("smallbank_balance", (customer,))
        arrivals.append(spec + (t,))
    return arrivals


def _serve_elastic(arrivals, traced):
    cluster = ClusterTx(
        smallbank.build_database(1),
        procedures=smallbank.PROCEDURES,
        n_shards=N_SHARDS,
        router="range",
        options=ClusterOptions(
            elastic=ElasticConfig(min_queue_depth=8, max_migrations=4)
        ),
    )
    admission = AdmissionController(
        1 << 14,
        max_pending_per_shard=48,
        router=cluster.router,
        registry=cluster.registry,
        record_admitted=True,
    )
    runtime = ServeRuntime(
        cluster,
        former=AdaptiveBulkFormer(
            SLOConfig(target_p95_s=0.005, min_bulk=16, max_bulk=512)
        ),
        admission=admission,
    )
    if traced:
        with telemetry.session() as tel:
            report = runtime.run(arrivals)
        assert tel.tracer.spans
        assert telemetry.validate_chrome_trace(tel.trace()) == []
    else:
        report = runtime.run(arrivals)
    outcomes = [
        cluster.results.get(txn.txn_id) for txn in admission.admitted_log
    ]
    return (
        [
            (m.src, m.dst, m.key_lo, m.key_hi, m.moved_rows, m.seconds)
            for m in report.migrations
        ],
        outcomes,
        (report.executed, report.committed, report.aborted),
        (report.admission.rejected, report.admission.rejected_by_shard),
        report.elapsed_s,
        cluster.router.range_table,
        cluster.logical_state(),
    )


class TestElasticControlIsNotTelemetry:
    @pytest.mark.parametrize("seed, hot_shard", [(7, 2), (19, 0), (43, 3)])
    def test_served_elastic_cluster_twin(self, seed, hot_shard):
        arrivals = _skewed_arrivals(seed, hot_shard)
        off = _serve_elastic(arrivals, traced=False)
        on = _serve_elastic(arrivals, traced=True)
        # Not vacuous: the hot shard really is split, unobserved.
        assert off[0], "the untraced cluster performed no migration"
        assert None not in off[1]
        assert on == off
