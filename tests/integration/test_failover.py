"""Failover integration tests: the durable cluster's acceptance bar.

ISSUE 2's criterion: killing any one shard at an arbitrary point of a
>= 20-bulk TM1 cluster run, then recovering via replica promotion +
WAL replay, yields final store state and per-transaction outcomes
identical to the uninterrupted run and to the serial oracle.
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro import (
    ChooserThresholds,
    ClusterOptions,
    ClusterTx,
    CpuEngine,
    DurabilityConfig,
    MigrationPlan,
    TransactionPool,
)
from repro.errors import ClusterError, ConfigError, ShardFailure
from repro.workloads import tm1
from tests.integration.test_cluster import (
    LEDGER_PROCEDURES,
    build_ledger_db,
    ledger_specs,
    serial_ledger_state,
)

N_SHARDS = 4
N_BULKS = 20
BULK_TXNS = 50


def tm1_bulks(db, router, n_bulks=N_BULKS, bulk_txns=BULK_TXNS):
    return [
        tm1.generate_cluster_transactions(
            db, bulk_txns, shard_of=router.shard_of_key,
            cross_shard_fraction=0.1, seed=800 + k,
        )
        for k in range(n_bulks)
    ]


def run_tm1_cluster(
    db,
    bulks,
    kill: Optional[Tuple[int, int, int]] = None,
    **config_kwargs,
) -> Tuple[ClusterTx, List]:
    """Execute ``bulks``, draining requeued work before the next bulk
    is admitted (so bulk composition is crash-invariant)."""
    cluster = ClusterTx(
        db,
        procedures=tm1.CLUSTER_PROCEDURES,
        n_shards=N_SHARDS,
        options=ClusterOptions(
            durability=DurabilityConfig(
                checkpoint_interval=4, n_replicas=2, **config_kwargs
            )
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


def serial_tm1_outcome(db, bulks):
    oracle_db = db.clone()
    cpu = CpuEngine(oracle_db, procedures=tm1.CLUSTER_PROCEDURES, num_cores=1)
    pool = TransactionPool()
    cpu.execute([pool.submit(n, p) for bulk in bulks for n, p in bulk])
    return oracle_db


class TestAcceptanceTM1:
    """>= 20 bulks, one shard killed at an arbitrary point."""

    @pytest.mark.parametrize(
        "kill",
        [
            (0, 0, 0),    # shard 0 (the registry owner), before anything
            (2, 7, 0),    # mid-run, at a bulk boundary
            (1, 11, 2),   # mid-bulk: waves 0-1 durable, rest halted
            (3, 19, 1),   # the very last bulk
        ],
        ids=["shard0-start", "boundary", "mid-bulk", "last-bulk"],
    )
    def test_kill_recover_matches_uninterrupted_and_oracle(self, kill):
        db = tm1.build_database(scale_factor=1)
        probe = ClusterTx(db, procedures=tm1.CLUSTER_PROCEDURES,
                          n_shards=N_SHARDS)
        bulks = tm1_bulks(db, probe.router)
        assert len(bulks) >= 20

        reference, ref_reports = run_tm1_cluster(db, bulks)
        assert ref_reports == []

        crashed, reports = run_tm1_cluster(db, bulks, kill=kill)
        assert len(reports) == 1
        report = reports[0]
        assert report.shard == kill[0]
        # The promoted replica was diffed byte-identical against the
        # shard's last durable state.
        assert report.verified
        # Recovery time decomposes into checkpoint restore plus WAL
        # suffix replay; the remainder is the reseeding checkpoint's
        # transfer. Both parts are visible so a trace can attribute
        # recovery latency to the right mechanism.
        assert report.restore_seconds > 0.0
        assert report.replay_seconds >= 0.0
        if report.replayed_records:
            assert report.replay_seconds > 0.0
        else:
            assert report.replay_seconds == 0.0
        assert (
            report.restore_seconds + report.replay_seconds
            <= report.seconds + 1e-12
        )

        # Final store state: identical to the uninterrupted run, down
        # to physical row order per shard, and to the serial oracle.
        assert crashed.logical_state() == reference.logical_state()
        for ref_engine, crash_engine in zip(reference.shards, crashed.shards):
            assert (
                ref_engine.db.physical_state()
                == crash_engine.db.physical_state()
            )
        oracle_db = serial_tm1_outcome(db, bulks)
        assert crashed.logical_state() == oracle_db.logical_state()

        # Per-transaction outcomes: identical commit/abort sets.
        n_txns = sum(len(b) for b in bulks)
        assert len(crashed.results) == n_txns
        for txn_id in range(n_txns):
            assert (
                crashed.results.get(txn_id).committed
                == reference.results.get(txn_id).committed
            )

    def test_every_shard_is_killable(self):
        """Sanity over all shard ids with a shorter run."""
        db = tm1.build_database(scale_factor=1)
        probe = ClusterTx(db, procedures=tm1.CLUSTER_PROCEDURES,
                          n_shards=N_SHARDS)
        bulks = tm1_bulks(db, probe.router, n_bulks=6)
        reference, _ = run_tm1_cluster(db, bulks)
        for shard in range(N_SHARDS):
            crashed, reports = run_tm1_cluster(db, bulks, kill=(shard, 3, 0))
            assert [r.shard for r in reports] == [shard]
            assert crashed.logical_state() == reference.logical_state()


class TestFailoverMechanics:
    def make_cluster(self, n_accounts=24, **config_kwargs):
        config_kwargs.setdefault("checkpoint_interval", 2)
        config_kwargs.setdefault("n_replicas", 1)
        return ClusterTx(
            build_ledger_db(n_accounts),
            procedures=LEDGER_PROCEDURES,
            n_shards=2,
            options=ClusterOptions(
                durability=DurabilityConfig(**config_kwargs)
            ),
        )

    def test_halted_waves_requeue_in_timestamp_order(self, rng):
        cluster = self.make_cluster()
        specs = ledger_specs(rng, 40, 24, cross_prob=0.4)
        cluster.failover.schedule_kill(1, bulk=0, wave=1)
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="kset")
        assert result.halted
        assert result.requeued > 0
        assert len(result.failovers) == 1
        # Requeued transactions kept their ids and pool order.
        pending = [t.txn_id for t in cluster.pool]
        assert pending == sorted(pending)
        while len(cluster.pool):
            cluster.run_bulk(strategy="kset")
        assert cluster.logical_state() == serial_ledger_state(specs, 24)

    def test_requeue_orders_by_timestamp_not_submit_time(self, rng):
        """Satellite regression: requeue is keyed on the Definition-1
        timestamp (``txn_id``), never on wall-clock ``submit_time``.
        Submit times arrive shuffled here; a requeue that sorted by
        them would replay halted work out of timestamp order."""
        cluster = self.make_cluster()
        specs = ledger_specs(rng, 40, 24, cross_prob=0.4)
        shuffled = rng.permutation(len(specs)).astype(float)
        cluster.failover.schedule_kill(1, bulk=0, wave=1)
        cluster.submit_many(
            [(name, params, float(t))
             for (name, params), t in zip(specs, shuffled)]
        )
        result = cluster.run_bulk(strategy="kset")
        assert result.halted and result.requeued > 1
        pending = list(cluster.pool)
        ids = [t.txn_id for t in pending]
        assert ids == sorted(ids)
        # The requeued slice's wall-clock times really are shuffled --
        # otherwise the ordering assertion above would be vacuous.
        submit_times = [t.submit_time for t in pending]
        assert submit_times != sorted(submit_times)
        while len(cluster.pool):
            cluster.run_bulk(strategy="kset")
        assert cluster.logical_state() == serial_ledger_state(specs, 24)

    def test_streaming_kset_deferral_across_failover(self):
        """Satellite: cluster streaming K-SET deferral keeps timestamp
        order across a failover boundary -- deferred older work and
        the younger conflicting transfer both survive the promotion.
        """
        specs = [
            ("deposit", (0, 10)),
            ("deposit", (0, 10)),
            ("deposit", (0, 10)),
            ("transfer", (0, 1, 125)),  # needs all three deposits
        ]
        cluster = self.make_cluster(n_accounts=4)
        cluster.submit_many(specs)
        # Round 1: streaming K-SET defers two conflicting deposits.
        cluster.run_bulk(strategy="kset", max_rounds=1)
        assert len(cluster.pool) > 0
        # The shard owning account 0 dies before the deferred work runs.
        home = cluster.router.shard_of_key(0)
        cluster.failover.kill(home)
        drained = 0
        while len(cluster.pool) and drained < 10:
            cluster.run_bulk(strategy="kset", max_rounds=1)
            drained += 1
        assert len(cluster.pool) == 0
        # Serial order: 100 + 30 >= 125, so the transfer commits.
        assert cluster.results.get(3).committed
        assert cluster.logical_state() == serial_ledger_state(specs, 4)

    def test_kill_between_bulks_recovers_at_the_next_bulk(self, rng):
        cluster = self.make_cluster()
        specs = ledger_specs(rng, 30, 24, cross_prob=0.0)
        cluster.submit_many(specs)
        cluster.run_bulk(strategy="kset")
        cluster.failover.kill(0)
        assert cluster.dead_shards == {0}
        # The next bulk finds the shard down at its first wave: it
        # halts, requeues everything, and promotes a replica.
        cluster.submit_many(ledger_specs(rng, 10, 24, cross_prob=0.0))
        result = cluster.run_bulk(strategy="kset")
        assert result.halted and result.requeued == 10
        (report,) = result.failovers
        assert report.shard == 0 and report.verified
        assert cluster.failover.dead == frozenset()
        while len(cluster.pool):
            cluster.run_bulk(strategy="kset")
        assert len(cluster.results) == 40

    def test_recovered_shard_keeps_its_chooser_thresholds(self, rng):
        """The engine rebuilt for a recovered shard (GPUTx.rebuild_on)
        carries the failed engine's chooser thresholds, so 'auto' picks
        for that shard after a failover as it did before."""
        cluster = self.make_cluster()
        tuned = ChooserThresholds(w0_bar=1)  # every bulk is K-SET wide
        cluster.shards[0].thresholds = tuned

        def auto_bulk():
            cluster.submit_many(ledger_specs(rng, 30, 24, cross_prob=0.0))
            return cluster.run_bulk(strategy="auto")

        before = auto_bulk().waves[0].strategies
        assert before[0] == "kset" and before[1] != "kset"
        cluster.failover.kill(0)
        cluster.failover.recover(0)
        assert cluster.failover.dead == frozenset()
        assert cluster.shards[0].thresholds is tuned
        assert auto_bulk().waves[0].strategies == before

    def test_recovery_without_replicas_uses_host_wal(self, rng):
        """K = 0 still recovers in the simulation (host-side WAL and
        checkpoints); only the redundancy cost disappears."""
        cluster = self.make_cluster(n_replicas=0)
        specs = ledger_specs(rng, 30, 24, cross_prob=0.2)
        cluster.submit_many(specs)
        cluster.run_bulk(strategy="kset")
        cluster.failover.kill(1)
        report = cluster.failover.recover(1)
        assert report.replica_device is None
        assert report.verified
        assert cluster.logical_state() == serial_ledger_state(specs, 24)

    def test_register_after_shard0_recovery(self):
        from repro.core.procedure import TransactionType, Access
        from repro.gpu import ops as op_ir

        cluster = self.make_cluster(n_accounts=8)
        cluster.submit("deposit", (0, 5))
        cluster.run_bulk(strategy="kset")
        cluster.failover.kill(0)
        cluster.failover.recover(0)

        def _double(account: int) -> op_ir.OpStream:
            row = yield op_ir.IndexProbe("accounts_pk", account)
            balance = yield op_ir.Read("accounts", "balance", row)
            yield op_ir.Write("accounts", "balance", row, balance * 2)
            return balance * 2

        cluster.register(TransactionType(
            name="double",
            body=_double,
            access_fn=lambda p: [Access(int(p[0]), write=True)],
            partition_fn=lambda p: int(p[0]),
            two_phase=True,
            conflict_classes=frozenset({"accounts"}),
        ))
        cluster.submit("double", (0,))
        result = cluster.run_bulk(strategy="kset")
        assert result.committed == 1
        state = cluster.logical_state()
        row = next(r for r in state["accounts"] if r[0] == 0)
        assert row[1] == 210

    def test_wal_truncation_does_not_break_recovery(self, rng):
        """Checkpoints truncate the WAL prefix; a kill right after a
        checkpoint replays only the (empty) suffix."""
        cluster = self.make_cluster(checkpoint_interval=1)
        specs = ledger_specs(rng, 20, 24, cross_prob=0.0)
        cluster.submit_many(specs)
        cluster.run_bulk(strategy="kset")
        unit = cluster.durability.unit(0)
        assert len(unit.wal.records) == 0  # truncated by the checkpoint
        cluster.failover.kill(0)
        report = cluster.failover.recover(0)
        assert report.replayed_records == 0
        assert report.verified

    def test_leader_wave_records_only_touching_shards(self):
        """A cross-shard transaction's outcome is sealed into the WALs
        of the shards it touches -- and only those."""
        cluster = ClusterTx(
            build_ledger_db(24),
            procedures=LEDGER_PROCEDURES,
            n_shards=4,
            options=ClusterOptions(
                durability=DurabilityConfig(
                    checkpoint_interval=8, n_replicas=1
                )
            ),
        )
        # Accounts 0 and 1 live on shards 0 and 1 under hash routing.
        cluster.submit("transfer", (0, 1, 5))
        cluster.run_bulk(strategy="kset")
        recorded = {
            shard: [
                outcome
                for record in cluster.durability.unit(shard).wal
                for outcome in record.outcomes
            ]
            for shard in range(4)
        }
        assert [txn_id for txn_id, _c, _r in recorded[0]] == [0]
        assert [txn_id for txn_id, _c, _r in recorded[1]] == [0]
        assert recorded[2] == [] and recorded[3] == []

    def test_durability_accounting_phases(self, rng):
        cluster = self.make_cluster(checkpoint_interval=1)
        specs = ledger_specs(rng, 30, 24, cross_prob=0.2)
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="kset")
        assert result.breakdown.phases.get("wal_sync", 0.0) > 0.0
        assert result.breakdown.phases.get("checkpoint", 0.0) > 0.0
        assert cluster.durability.wal_records > 0
        assert cluster.durability.replication_bytes > 0


class TestFailoverErrors:
    def test_kill_requires_durability(self, rng):
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        assert cluster.failover is None
        with pytest.raises(ClusterError, match="without durability"):
            cluster._kill_shard(0)

    def test_recover_requires_dead_shard(self):
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
            options=ClusterOptions(durability=DurabilityConfig()),
        )
        with pytest.raises(ClusterError, match="not down"):
            cluster.failover.recover(0)

    def test_kill_validates_shard_id(self):
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
            options=ClusterOptions(durability=DurabilityConfig()),
        )
        with pytest.raises(ClusterError, match="no shard"):
            cluster.failover.kill(5)
        with pytest.raises(ClusterError, match="no shard"):
            cluster.failover.schedule_kill(9, bulk=0)
        with pytest.raises(ClusterError, match=">= 0"):
            cluster.failover.schedule_kill(0, bulk=-1)

    @pytest.mark.parametrize(
        "shard, bulk, wave",
        [(1, float("nan"), 0), (True, 0, 0), (1, 1.5, 0), (1, 0, 0.5),
         (1.0, 0, 0)],
        ids=["bulk-nan", "shard-true", "bulk-half", "wave-half", "shard-float"],
    )
    def test_kill_coordinates_must_be_ints(self, shard, bulk, wave):
        """``schedule_kill(1, bulk=nan)`` was accepted, then neither
        fired nor stayed pending (a NaN compares false against every
        point), and ``schedule_kill(True, bulk=0)`` killed shard 1."""
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
            options=ClusterOptions(durability=DurabilityConfig()),
        )
        with pytest.raises(ConfigError, match="kill"):
            cluster.failover.schedule_kill(shard, bulk=bulk, wave=wave)
        assert cluster.failover.pending == ()
        if wave == 0 and bulk == 0:
            # ``kill(True)`` marked a shard "True" dead; ``kill(0.5)``
            # raised a bare TypeError.
            with pytest.raises(ConfigError, match="kill shard"):
                cluster.failover.kill(shard)
            assert cluster.dead_shards == frozenset()
            # ``recover(1.0)`` raised a bare TypeError mid-recovery.
            cluster.failover.kill(1)
            with pytest.raises(ConfigError, match="recover shard"):
                cluster.failover.recover(shard)
            assert cluster.dead_shards == {1}
        cluster.failover.schedule_kill(np.int64(1), bulk=np.int32(0))
        (order,) = cluster.failover.pending
        assert (order.shard, order.bulk, order.wave) == (1, 0, 0)
        assert type(order.shard) is int and type(order.bulk) is int

    @pytest.mark.parametrize(
        "shard", [1.0, True, -1, "1"], ids=["float", "true", "negative", "str"]
    )
    def test_recover_shard_checks_its_argument(self, shard):
        """``ClusterTx.recover_shard(1.0)`` raised a bare TypeError and
        ``recover_shard(True)`` recovered shard 1: a refused call now
        leaves the shard dead, and recoverable with ``1``."""
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
            options=ClusterOptions(durability=DurabilityConfig()),
        )
        cluster.failover.kill(1)
        with pytest.raises(ConfigError, match="recover shard"):
            cluster.recover_shard(shard)
        with pytest.raises(ClusterError, match="no shard 2"):
            cluster.recover_shard(2)
        with pytest.raises(ClusterError, match="shard 0 is not down"):
            cluster.recover_shard(0)
        assert cluster.dead_shards == {1}
        assert cluster.recover_shard(1).verified
        assert cluster.dead_shards == frozenset()

    def test_dead_shard_access_raises_shard_failure(self):
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
            options=ClusterOptions(durability=DurabilityConfig()),
        )
        cluster.failover.kill(1)
        with pytest.raises(ShardFailure, match="shard 1 is down"):
            cluster.shards[1].execute_bulk([])
        with pytest.raises(ShardFailure):
            cluster.logical_state()
        cluster.failover.recover(1)
        assert cluster.logical_state()  # reachable again

    def test_double_kill_is_idempotent(self):
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
            options=ClusterOptions(durability=DurabilityConfig()),
        )
        cluster.failover.kill(1)
        cluster.failover.kill(1)
        assert cluster.dead_shards == {1}


class TestRequeuedAccounting:
    """``ClusterExecutionResult.requeued`` counts everything of a bulk
    that went back to the pool, so executed plus requeued is the bulk's
    size on every path. Shard deferrals and the younger waves they stop
    used to go uncounted."""

    @pytest.mark.parametrize("path", ["kill", "migration", "deferral"])
    def test_every_transaction_is_executed_or_requeued(self, path):
        cluster = ClusterTx(
            build_ledger_db(24), procedures=LEDGER_PROCEDURES, n_shards=2,
            router="range",
            options=ClusterOptions(durability=DurabilityConfig()),
        )
        specs = ledger_specs(np.random.default_rng(11), 80, 24, 0.2)
        cluster.submit_many(specs)
        options = {}
        if path == "kill":
            cluster.failover.schedule_kill(1, bulk=0, wave=1)
        elif path == "migration":
            cluster.request_migration(
                MigrationPlan(src=0, dst=1, key_lo=6, key_hi=12)
            )
        else:
            options = {"max_rounds": 1}
        requeued = []
        while len(cluster.pool):
            size = len(cluster.pool)
            out = cluster.run_bulk(strategy="kset", **options)
            assert len(out.results) + out.requeued == size
            requeued.append(out.requeued)
        assert requeued[0] > 0
        assert cluster.logical_state() == serial_ledger_state(specs, 24)

    def test_deferred_smallbank_bulk(self):
        """The deferral case as first seen: SmallBank under streaming
        K-SET with one round per shard."""
        from repro.workloads import smallbank

        db = smallbank.build_database(1)
        cluster = ClusterTx(db, procedures=smallbank.PROCEDURES, n_shards=2)
        cluster.submit_many(smallbank.generate_transactions(db, 400, seed=3))
        batch = cluster.pool.take()
        out = cluster.execute_bulk(batch, strategy="kset", max_rounds=1)
        assert out.requeued == len(cluster.pool) > 0
        assert len(out.results) + out.requeued == len(batch)


class TestOnePoolOneResultSet:
    """Every shard engine of a cluster holds the cluster's own
    transaction pool and result pool (Sections 3.1-3.2: one pool in,
    one result pool out): nothing is pulled back from a shard pool and
    no result is recorded twice."""

    def build(self):
        return ClusterTx(
            build_ledger_db(64),
            procedures=LEDGER_PROCEDURES,
            n_shards=N_SHARDS,
            router="range",
            options=ClusterOptions(
                durability=DurabilityConfig(
                    checkpoint_interval=2, n_replicas=1
                )
            ),
        )

    @staticmethod
    def assert_shared(cluster):
        for engine in cluster.shards:
            assert engine.pool is cluster.pool
            assert engine.results is cluster.results

    def test_shards_share_pool_and_results_through_faults(self):
        cluster = self.build()
        self.assert_shared(cluster)
        specs = ledger_specs(
            np.random.default_rng(5), 240, 64, cross_prob=0.15
        )
        submitted = cluster.submit_many(specs)
        cluster.failover.schedule_kill(1, bulk=1, wave=0)
        cluster.request_migration(
            MigrationPlan(src=0, dst=3, key_lo=8, key_hi=16)
        )
        executed = 0
        deferrals = failovers = migrations = 0
        while len(cluster.pool):
            taken = min(60, len(cluster.pool))
            # max_rounds=1: streaming K-SET defers everything past the
            # first 0-set back into the (shared) pool.
            out = cluster.run_bulk(
                strategy="kset", max_rounds=1, max_txns=60
            )
            executed += len(out.results)
            failovers += len(out.failovers)
            migrations += len(out.migrations)
            if (
                len(out.results) < taken
                and not out.halted
                and not out.migrations
            ):
                deferrals += 1
            self.assert_shared(cluster)  # also the recovered engine
        assert (failovers, migrations) == (1, 1)
        assert deferrals > 0
        assert executed == submitted == len(cluster.results)
        for txn_id in range(submitted):
            assert cluster.results.get(txn_id) is not None
        assert cluster.logical_state() == serial_ledger_state(specs, 64)
