"""Integration tests for the online ingest runtime.

The core property is Definition 1 carried through the streaming front
half: serving an arrival stream -- any bulk cuts, any former, single
or sharded backend -- must leave the database in the state of one
serial run of the admitted transactions in arrival order, with the
same per-transaction commit/abort outcomes.

Workloads here are two-phase (aborts strictly before writes), so the
commit/abort set is deterministic and must match the serial oracle
exactly; cascade aborts (the TPL/undo interaction the strategy tests
cover) would legitimately shrink it.
"""

from typing import List, Tuple

import numpy as np
import pytest

from repro import ClusterTx, GPUTx
from repro.core.procedure import Access, TransactionType
from repro.cpu.engine import CpuEngine
from repro.errors import ServeError
from repro.gpu import ops as op_ir
from repro.serve import (
    AdaptiveBulkFormer,
    AdmissionController,
    FixedBulkFormer,
    ServeRuntime,
    SLOConfig,
    serve,
)
from repro.workloads.base import (
    make_rng,
    poisson_arrival_times,
    timed_specs,
)
from tests.conftest import BANK_PROCEDURES, build_bank_db, make_transactions

N_ACCOUNTS = 64
LEDGER = "accounts"


# ---------------------------------------------------------------------------
# Index-probed ledger workload: shard-safe (rows are found through the
# primary-key index, not addressed by account id), two-phase.
# ---------------------------------------------------------------------------
def _deposit(account: int, amount: int) -> op_ir.OpStream:
    row = yield op_ir.IndexProbe("accounts_pk", account)
    if row < 0:
        yield op_ir.Abort("no such account")
    balance = yield op_ir.Read(LEDGER, "balance", row)
    yield op_ir.Write(LEDGER, "balance", row, balance + amount)
    return balance + amount


def _transfer(src: int, dst: int, amount: int) -> op_ir.OpStream:
    src_row = yield op_ir.IndexProbe("accounts_pk", src)
    if src_row < 0:
        yield op_ir.Abort("no source")
    dst_row = yield op_ir.IndexProbe("accounts_pk", dst)
    if dst_row < 0:
        yield op_ir.Abort("no destination")
    src_balance = yield op_ir.Read(LEDGER, "balance", src_row)
    if src_balance < amount:
        yield op_ir.Abort("insufficient funds")
    dst_balance = yield op_ir.Read(LEDGER, "balance", dst_row)
    yield op_ir.Write(LEDGER, "balance", src_row, src_balance - amount)
    yield op_ir.Write(LEDGER, "balance", dst_row, dst_balance + amount)
    return src_balance - amount


def _audit(account: int) -> op_ir.OpStream:
    row = yield op_ir.IndexProbe("accounts_pk", account)
    if row < 0:
        yield op_ir.Abort("no such account")
    balance = yield op_ir.Read(LEDGER, "balance", row)
    return balance


LEDGER_PROCEDURES = [
    TransactionType(
        name="deposit",
        body=_deposit,
        access_fn=lambda p: [Access(int(p[0]), write=True)],
        partition_fn=lambda p: int(p[0]),
        two_phase=True,
        conflict_classes=frozenset({LEDGER}),
    ),
    TransactionType(
        name="transfer",
        body=_transfer,
        access_fn=lambda p: [
            Access(int(p[0]), write=True),
            Access(int(p[1]), write=True),
        ],
        partition_fn=lambda p: None,
        two_phase=True,
        conflict_classes=frozenset({LEDGER}),
    ),
    TransactionType(
        name="audit",
        body=_audit,
        access_fn=lambda p: [Access(int(p[0]), write=False)],
        partition_fn=lambda p: int(p[0]),
        two_phase=True,
        conflict_classes=frozenset({LEDGER}),
    ),
]


def build_ledger_db(n_accounts: int = N_ACCOUNTS):
    db = build_bank_db(n_accounts)
    db.create_index("accounts_pk", LEDGER, ["id"])
    return db


def ledger_specs(rng, n: int, n_accounts: int = N_ACCOUNTS):
    """Random two-phase mix; transfers make ~1/3 of it (cross-shard
    under hash sharding whenever src and dst land apart)."""
    specs: List[Tuple[str, tuple]] = []
    for _ in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            specs.append(
                ("deposit", (int(rng.integers(0, n_accounts)),
                             int(rng.integers(1, 50))))
            )
        elif kind == 1:
            src = int(rng.integers(0, n_accounts))
            dst = int(rng.integers(0, n_accounts))
            if dst == src:
                dst = (src + 1) % n_accounts
            specs.append(("transfer", (src, dst, int(rng.integers(1, 30)))))
        else:
            specs.append(("audit", (int(rng.integers(0, n_accounts)),)))
    return specs


def ledger_arrivals(n: int, rate_tps: float, seed: int):
    specs = ledger_specs(make_rng(seed), n)
    times = poisson_arrival_times(make_rng(seed + 1), n, rate_tps)
    return timed_specs(specs, times)


def ledger_oracle(arrivals):
    """Serial execution in arrival order: state + outcome map."""
    db = build_ledger_db()
    cpu = CpuEngine(db, procedures=LEDGER_PROCEDURES, num_cores=1)
    txns = make_transactions([(name, params) for name, params, _t in arrivals])
    result = cpu.execute(txns)
    outcomes = {r.txn_id: r.committed for r in result.results}
    return db.logical_state(), outcomes


def slo() -> SLOConfig:
    return SLOConfig(target_p95_s=0.005, min_bulk=8, max_bulk=512)


class TestSingleEngineServing:
    @pytest.mark.parametrize(
        "former_factory",
        [
            lambda: AdaptiveBulkFormer(slo()),
            lambda: FixedBulkFormer(32, max_form_wait_s=0.002),
        ],
        ids=["adaptive", "fixed"],
    )
    def test_matches_serial_oracle(self, former_factory):
        arrivals = ledger_arrivals(400, 50_000.0, seed=42)
        expected_state, expected_outcomes = ledger_oracle(arrivals)
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        report = serve(engine, arrivals, former=former_factory())
        assert report.executed == len(arrivals)
        assert engine.db.logical_state() == expected_state
        got = {
            t: engine.results.get(t).committed
            for t in range(len(arrivals))
        }
        assert got == expected_outcomes

    def test_queue_drains_after_stream_ends(self):
        arrivals = ledger_arrivals(150, 1_000_000.0, seed=7)
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        runtime = ServeRuntime(
            engine, former=FixedBulkFormer(1000, max_form_wait_s=0.05)
        )
        report = runtime.run(arrivals)
        # The target (1000) is never reached; shutdown still cuts and
        # drains everything that was admitted.
        assert report.executed == 150
        assert len(engine.pool) == 0

    def test_empty_stream_shuts_down_cleanly(self):
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        report = serve(engine, [])
        assert report.executed == 0
        assert report.elapsed_s == 0.0
        assert report.bulks == []
        assert report.latency.count == 0
        assert report.sustained_tps == 0.0

    def test_backpressure_sheds_and_still_matches_oracle(self):
        """With a tiny queue, rejected arrivals are dropped; the state
        must equal a serial run of exactly the admitted ones."""
        arrivals = ledger_arrivals(300, 2_000_000.0, seed=11)

        def run():
            engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
            runtime = ServeRuntime(
                engine,
                former=FixedBulkFormer(16, max_form_wait_s=0.001),
                admission=AdmissionController(max_pending=16),
            )
            return engine, runtime.run(arrivals)

        engine, report = run()
        assert report.admission.rejected > 0
        assert report.executed == report.admission.admitted
        assert len(engine.pool) == 0
        # Recover the admitted sub-stream from the result pool (ids
        # are dense over admitted arrivals, in arrival order), then
        # replay it serially.
        admitted = []
        next_id = 0
        for arrival in arrivals:
            if next_id < report.executed and engine.results.get(next_id):
                admitted.append(arrival)
                next_id += 1
        # The mask above assigns results to the earliest arrivals
        # compatible with the dense id sequence; re-running the same
        # deterministic config must reproduce the same decisions.
        engine2, report2 = run()
        assert report2.admission.rejected == report.admission.rejected
        assert (
            engine2.db.logical_state() == engine.db.logical_state()
        )

    def test_latency_components_sum_to_total(self):
        arrivals = ledger_arrivals(200, 100_000.0, seed=13)
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        report = serve(engine, arrivals, former=AdaptiveBulkFormer(slo()))
        lat = report.latency
        assert lat.count == 200
        total_mean = lat["total"].mean
        parts_mean = sum(
            lat[c].mean for c in ("queue", "execution", "transfer")
        )
        assert total_mean == pytest.approx(parts_mean)
        ordered = [getattr(lat["total"], s) for s in ("p50", "p95", "p99")]
        assert ordered == sorted(ordered)
        assert report.breakdown.total == pytest.approx(report.busy_s)

    def test_streaming_kset_deferrals_preserve_order(self):
        """A strategy that defers work back to the pool must not break
        the serial-oracle equivalence across bulk boundaries."""
        arrivals = ledger_arrivals(250, 80_000.0, seed=17)
        expected_state, expected_outcomes = ledger_oracle(arrivals)
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        report = serve(
            engine,
            arrivals,
            former=FixedBulkFormer(64, max_form_wait_s=0.002),
            strategy="kset",
            max_rounds=1,
        )
        assert report.executed == 250
        assert engine.db.logical_state() == expected_state
        got = {t: engine.results.get(t).committed for t in range(250)}
        assert got == expected_outcomes

    def test_non_monotone_stream_rejected(self):
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        bad = [("deposit", (0, 1), 0.5), ("deposit", (1, 1), 0.1)]
        with pytest.raises(ServeError):
            serve(engine, bad)

    def test_nan_submit_time_is_rejected_not_served_forever(self):
        """Regression: one NaN in the stream used to hang ``run`` (it
        never comes due and never moves the clock)."""
        arrivals = [list(a) for a in ledger_arrivals(50, 50_000.0, seed=3)]
        arrivals[20][2] = float("nan")
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        with pytest.raises(ServeError, match="finite"):
            serve(engine, arrivals)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_infinite_wait_budget_cuts_when_the_stream_runs_dry(self, adaptive):
        """Regression: an exhausted stream peeks +inf, which "fits" an
        infinite wait budget; the fill must stop at exhaustion instead
        of popping an empty slice."""
        wait = float("inf")
        former = FixedBulkFormer(32, max_form_wait_s=wait)
        if adaptive:
            former = AdaptiveBulkFormer(
                SLOConfig(min_bulk=32, max_bulk=32, max_form_wait_s=wait)
            )
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        report = serve(
            engine, ledger_arrivals(59, 50_000.0, seed=3), former=former
        )
        assert [b.size for b in report.bulks] == [32, 27]

    def test_bank_single_device_still_served(self):
        """The direct-row bank procedures (no index) stay serveable on
        a single device."""
        specs = [("deposit", (i % 8, 5), i * 1e-5) for i in range(64)]
        engine = GPUTx(build_bank_db(), procedures=BANK_PROCEDURES)
        report = serve(engine, specs, former=AdaptiveBulkFormer(slo()))
        assert report.executed == 64
        assert report.committed == 64


class TestServeLoopIsPerBulk:
    """Host control cost is paid per bulk, not per arrival: call
    counts, so no clock is involved."""

    def test_overload_run_makes_a_few_calls_per_bulk(self, monkeypatch):
        import repro.telemetry as telemetry
        from repro import EngineOptions
        from repro.core.txn import TransactionPool
        from repro.serve import ArrivalStream
        from repro.telemetry.metrics import Histogram
        from repro.workloads import tm1

        calls = {}

        def count(owner, attr):
            original = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls[attr] = calls.get(attr, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        count(ArrivalStream, "pop_until")
        count(AdmissionController, "offer_batch")
        count(AdmissionController, "tenant_of")
        count(TransactionPool, "submit_batch")
        count(AdaptiveBulkFormer, "target_size")
        count(Histogram, "observe")

        db = tm1.build_database(1)
        arrivals = tm1.generate_timed_transactions(
            db, 20_000, rate_tps=2e6, pattern="poisson", seed=5
        )
        engine = GPUTx(
            db, procedures=tm1.PROCEDURES,
            options=EngineOptions(backend="vectorized"),
        )
        runtime = ServeRuntime(
            engine,
            former=AdaptiveBulkFormer(
                SLOConfig(target_p95_s=0.005, min_bulk=24, max_bulk=4096)
            ),
            admission=AdmissionController(1 << 16),
        )
        with telemetry.session() as tel:
            report = runtime.run(arrivals)
        assert report.executed == len(arrivals) >= 20_000
        bulks = len(report.bulks)
        # The device goes idle before a bulk only when the queue ran
        # empty (or a filling bulk waited) -- once, at the first
        # arrival, under overload.
        finishes = [0.0] + [b.start_s + b.seconds for b in report.bulks]
        idle = sum(
            1 for b, free in zip(report.bulks, finishes) if b.start_s > free
        )
        budget = 4 * bulks + idle
        assert bulks < 100 and budget < len(arrivals) / 50
        for name in ("pop_until", "offer_batch", "submit_batch",
                     "target_size", "observe"):
            assert 0 < calls[name] <= budget, (name, calls[name], budget)
        assert "tenant_of" not in calls
        # ... and the queue-wait histogram still saw every transaction.
        waits = tel.metrics.histogram("queue_wait_seconds")
        assert waits.count() == report.executed


class TestShardedServing:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_matches_serial_oracle_commit_abort_set(self, n_shards):
        """Sharded ingest: cross-shard transfers force coordinator
        waves; state and the commit/abort set must match the serial
        oracle exactly."""
        arrivals = ledger_arrivals(300, 50_000.0, seed=23)
        expected_state, expected_outcomes = ledger_oracle(arrivals)
        cluster = ClusterTx(
            build_ledger_db(),
            procedures=LEDGER_PROCEDURES,
            n_shards=n_shards,
        )
        report = serve(
            cluster, arrivals, former=AdaptiveBulkFormer(slo())
        )
        assert report.executed == len(arrivals)
        assert cluster.logical_state() == expected_state
        got = {
            t: cluster.results.get(t).committed
            for t in range(len(arrivals))
        }
        assert got == expected_outcomes

    def test_per_shard_admission_routes_through_router(self):
        cluster = ClusterTx(
            build_ledger_db(),
            procedures=LEDGER_PROCEDURES,
            n_shards=2,
        )
        admission = AdmissionController(
            max_pending=1 << 12,
            max_pending_per_shard=8,
            router=cluster.router,
            registry=cluster.registry,
        )
        arrivals = ledger_arrivals(300, 2_000_000.0, seed=29)
        runtime = ServeRuntime(
            cluster,
            former=FixedBulkFormer(16, max_form_wait_s=0.001),
            admission=admission,
        )
        report = runtime.run(arrivals)
        assert report.admission.rejected > 0
        assert report.admission.rejected_by_shard  # routed rejections
        assert report.executed == report.admission.admitted
        assert len(cluster.pool) == 0

    def test_wave_strategies_surface_in_report(self):
        arrivals = ledger_arrivals(120, 40_000.0, seed=31)
        cluster = ClusterTx(
            build_ledger_db(),
            procedures=LEDGER_PROCEDURES,
            n_shards=2,
        )
        report = serve(cluster, arrivals, former=AdaptiveBulkFormer(slo()))
        assert all(b.strategy for b in report.bulks)

    def test_report_bulks_record_what_the_former_observed(self):
        """``ServeReport.bulks`` is the one per-bulk record of (size,
        target, strategy): each entry is what the adaptive former saw
        when the bulk was observed. (The former kept a second copy,
        its ``trajectory`` list, that nothing read.)"""
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        former = AdaptiveBulkFormer(slo())
        seen = []
        observe = former.observe

        def spy(**kwargs):
            seen.append((kwargs["size"], former.target_size(), kwargs["strategy"]))
            observe(**kwargs)

        former.observe = spy
        report = serve(engine, ledger_arrivals(200, 40_000.0, seed=37), former=former)
        assert len(seen) > 1
        assert [(b.size, b.target, b.strategy) for b in report.bulks] == seen

    def test_strategies_used_counts_actual_subbulk_sizes(self):
        """Per-strategy counts come from each shard's real sub-bulk
        size, so they sum to the executed total exactly."""
        cluster = ClusterTx(
            build_ledger_db(),
            procedures=LEDGER_PROCEDURES,
            n_shards=2,
        )
        # Skew hard onto shard 0 (even accounts) with a couple of
        # cross-shard transfers in between.
        specs = [("deposit", (0, 1)) for _ in range(30)]
        specs += [("transfer", (0, 1, 1)), ("transfer", (2, 3, 1))]
        specs += [("deposit", (1, 1)) for _ in range(4)]
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="auto")
        counts = result.strategies_used()
        assert sum(counts.values()) == len(result.results) == 36
        # The default parallel commit labels coordinator waves by the
        # grouped leader/follower path; serial mode keeps "leader".
        assert counts.get("leader-parallel", 0) == 2
        assert result.strategy in counts


class TestArrivalRateRealism:
    def test_sustained_tracks_offered_below_capacity(self):
        rate = 20_000.0
        arrivals = ledger_arrivals(400, rate, seed=37)
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        report = serve(engine, arrivals, former=AdaptiveBulkFormer(slo()))
        assert report.sustained_tps == pytest.approx(rate, rel=0.15)
        assert report.met_slo(slo().target_p95_s)

    def test_bulk_starts_are_monotone(self):
        arrivals = ledger_arrivals(100, 30_000.0, seed=41)
        engine = GPUTx(build_ledger_db(), procedures=LEDGER_PROCEDURES)
        runtime = ServeRuntime(engine, former=AdaptiveBulkFormer(slo()))
        report = runtime.run(arrivals)
        starts = [b.start_s for b in report.bulks]
        assert starts == sorted(starts)
        times = np.array([t for _n, _p, t in arrivals])
        assert np.all(np.diff(times) >= 0)


class TestShedAttributionAfterMigration:
    """Regression: ``AdmissionStats.rejected_by_shard`` keys must follow
    the live router, not the range table that existed at serve start.

    Admission routes every arrival through the cluster's router *at
    offer time*, and a live migration swaps the range table in place
    on that same router object -- so a rejection of a moved key is
    charged to the shard whose queue actually turned it away (the new
    owner), never to the range's pre-swap owner.
    """

    def test_shed_by_shard_tracks_live_router_swap(self):
        from repro import MigrationPlan
        from repro.serve import Arrival
        from repro.serve.metrics import LatencySummary

        cluster = ClusterTx(
            build_ledger_db(),
            procedures=LEDGER_PROCEDURES,
            n_shards=2,
            router="range",
        )
        assert cluster.router.range_table == ((0, 32, 0), (32, 64, 1))
        admission = AdmissionController(
            max_pending=1 << 10,
            max_pending_per_shard=2,
            router=cluster.router,
            registry=cluster.registry,
        )

        def deposit(key: int, t: float) -> Arrival:
            return Arrival("deposit", (key, 1), t)

        # Saturate shard 1's queue, then shed one arrival against it.
        assert admission.offer(deposit(40, 0.0), cluster.pool)
        assert admission.offer(deposit(41, 0.1), cluster.pool)
        assert not admission.offer(deposit(42, 0.2), cluster.pool)
        assert admission.stats.rejected_by_shard == {1: 1}

        # Live-migrate [16, 32) onto shard 1 mid-serving.
        report = cluster.migrate(
            MigrationPlan(src=0, dst=1, key_lo=16, key_hi=32)
        )
        assert report.moved_rows > 0
        deposit_type = cluster.registry.get("deposit")
        assert cluster.router.shards_of(deposit_type, (20, 1)) == (
            frozenset({1})
        )

        # Key 20 now belongs to shard 1, whose queue is still full:
        # the shed is charged to shard 1.  Stale attribution would
        # both admit the arrival (shard 0 has room) and charge any
        # shed to shard 0.
        assert not admission.offer(deposit(20, 0.3), cluster.pool)
        assert admission.stats.rejected_by_shard == {1: 2}
        # Shard 0 keeps admitting the keys it still owns.
        assert admission.offer(deposit(5, 0.4), cluster.pool)

        summary = LatencySummary.of([], admission.stats)
        assert summary.shed == 2
