"""Unit tests for the elastic-shard layer: config validation,
hot-shard detection from per-shard depth mappings, and migration
planning/validation on a live cluster."""

import numpy as np
import pytest

from repro import (
    ClusterTx,
    ElasticConfig,
    HotShardDetector,
    MigrationPlan,
)
from repro.cluster.elastic import QUEUE_RATIO, ShardMigrator
from repro.errors import ClusterError, ConfigError

from tests.conftest import BANK_PROCEDURES, build_bank_db
from tests.integration.test_cluster import (
    LEDGER_PROCEDURES,
    build_ledger_db,
    ledger_specs,
)

N_ACCOUNTS = 64


def build_cluster(n_shards=4, **kwargs):
    return ClusterTx(
        build_bank_db(N_ACCOUNTS),
        procedures=BANK_PROCEDURES,
        n_shards=n_shards,
        router="range",
        **kwargs,
    )


def registry_with_depths(depths):
    """Per-shard queue depths as the serve loop hands them over: a
    plain mapping (the gauges of the same name are report-only)."""
    return dict(depths)


class TestElasticConfig:
    def test_defaults_are_valid(self):
        config = ElasticConfig()
        assert QUEUE_RATIO > 1.0
        assert config.min_queue_depth >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_queue_depth": 0},
            {"max_migrations": -1},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            ElasticConfig(**kwargs)

    @pytest.mark.parametrize("name", ["min_queue_depth", "max_migrations"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5, 8.0, "8", True])
    def test_knobs_are_ints(self, name, value):
        # A NaN cap is never reached (``len(reports) >= nan`` is always
        # false): the safety valve and the depth floor would be off.
        with pytest.raises(ConfigError, match=name):
            ElasticConfig(**{name: value})

    def test_numpy_ints_are_normalised(self):
        config = ElasticConfig(
            min_queue_depth=np.int64(4), max_migrations=np.int32(0)
        )
        assert (config.min_queue_depth, config.max_migrations) == (4, 0)
        assert type(config.min_queue_depth) is int


class TestHotShardDetector:
    def test_no_queue_gauge_means_no_signal(self):
        detector = HotShardDetector()
        assert detector.scan({}, n_shards=4) is None

    def test_absent_shard_reads_zero(self):
        report = HotShardDetector().scan({0: 100}, n_shards=4)
        assert report is not None and report.shard == 0
        assert report.mean_other_depth == 0.0
        assert report.busy_s == 0.0 and report.conflict_rate == 0.0

    def test_level_fleet_is_not_flagged(self):
        registry = registry_with_depths({0: 20, 1: 22, 2: 21, 3: 20})
        assert HotShardDetector().scan(registry, n_shards=4) is None

    def test_runaway_queue_is_flagged_with_evidence(self):
        registry = registry_with_depths({0: 100, 1: 4, 2: 6, 3: 5})
        report = HotShardDetector().scan(
            registry,
            n_shards=4,
            busy={0: 0.9, 1: 0.1, 2: 0.1, 3: 0.1},
            conflict={0: 0.25},
        )
        assert report is not None
        assert report.shard == 0
        assert report.queue_depth == 100
        assert report.mean_other_depth == pytest.approx(5.0)
        assert report.busy_s == pytest.approx(0.9)
        assert report.mean_other_busy_s == pytest.approx(0.1)
        assert report.conflict_rate == 0.25
        assert "queue depth" in report.reason

    def test_absolute_floor_suppresses_tiny_queues(self):
        # 8x the fleet mean, but below min_queue_depth: noise.
        registry = registry_with_depths({0: 8, 1: 1, 2: 1, 3: 0})
        config = ElasticConfig(min_queue_depth=16)
        assert HotShardDetector(config).scan(registry, n_shards=4) is None

    def test_ratio_threshold_respected(self):
        detector = HotShardDetector(ElasticConfig(min_queue_depth=1))
        at_ratio = registry_with_depths(
            {0: 20 * QUEUE_RATIO, 1: 20, 2: 20, 3: 20}
        )
        assert detector.scan(at_ratio, n_shards=4) is None
        above = registry_with_depths(
            {0: 20 * QUEUE_RATIO + 1, 1: 20, 2: 20, 3: 20}
        )
        report = detector.scan(above, n_shards=4)
        assert report is not None and report.shard == 0

    def test_deepest_of_several_hot_shards_wins(self):
        registry = registry_with_depths({0: 80, 1: 90, 2: 1, 3: 1})
        config = ElasticConfig(min_queue_depth=1)
        report = HotShardDetector(config).scan(registry, n_shards=4)
        assert report is not None and report.shard == 1

    def test_dead_shards_are_ignored(self):
        registry = registry_with_depths({0: 100, 1: 5, 2: 5, 3: 5})
        report = HotShardDetector().scan(
            registry, n_shards=4, dead=frozenset({0})
        )
        assert report is None

    def test_fewer_than_two_live_shards_never_flags(self):
        registry = registry_with_depths({0: 100, 1: 5})
        report = HotShardDetector().scan(
            registry, n_shards=2, dead=frozenset({1})
        )
        assert report is None


class TestMigrationValidation:
    def test_migrate_requires_range_router(self):
        cluster = ClusterTx(
            build_bank_db(N_ACCOUNTS),
            procedures=BANK_PROCEDURES,
            n_shards=2,
        )
        with pytest.raises(ClusterError, match="range"):
            cluster.migrate(
                MigrationPlan(src=0, dst=1, key_lo=0, key_hi=8)
            )

    def test_rejects_self_move(self):
        cluster = build_cluster()
        with pytest.raises(ConfigError):
            cluster.migrate(
                MigrationPlan(src=1, dst=1, key_lo=16, key_hi=24)
            )

    def test_rejects_range_not_owned_by_src(self):
        cluster = build_cluster()  # shard 1 owns [16, 32)
        with pytest.raises(ConfigError, match="not\\s+fully owned"):
            cluster.migrate(
                MigrationPlan(src=0, dst=2, key_lo=16, key_hi=24)
            )

    def test_rejects_range_straddling_owners(self):
        cluster = build_cluster()
        with pytest.raises(ConfigError):
            cluster.migrate(
                MigrationPlan(src=0, dst=2, key_lo=8, key_hi=24)
            )

    def test_rejects_out_of_domain_range(self):
        cluster = build_cluster()
        with pytest.raises(ConfigError):
            cluster.migrate(
                MigrationPlan(src=3, dst=0, key_lo=56, key_hi=999)
            )

    @pytest.mark.parametrize(
        "field, value",
        [("key_lo", 0.5), ("key_hi", 16.0), ("dst", True),
         ("src", 0.0), ("key_lo", float("nan"))],
    )
    def test_plan_coordinates_must_be_ints(self, field, value):
        """A float cut used to install range entries such as
        ``(0, 0.5, 0), (0.5, 10, 1)`` and move the rows under them, and
        ``dst=True`` moved the range to shard 1."""
        cluster = build_cluster()
        plan = {**dict(src=0, dst=2, key_lo=0, key_hi=8), field: value}
        table = cluster.router.range_table
        for call in (cluster.migrate, cluster.request_migration):
            with pytest.raises(ConfigError, match=f"migration {field}"):
                call(MigrationPlan(**plan))
        assert cluster.router.range_table == table
        report = cluster.migrate(
            MigrationPlan(np.int64(0), 2, np.int32(0), np.int64(8))
        )
        assert report.moved_rows > 0

    @pytest.mark.parametrize("key_lo, key_hi", [(8, 8), (12, 8)])
    def test_empty_range_is_refused_before_the_bulk(self, key_lo, key_hi):
        """An empty range passed validation, then failed inside the next
        bulk's wave loop, after the pool was drained: the bulk's
        transactions were neither executed nor requeued."""
        cluster = ClusterTx(
            build_ledger_db(N_ACCOUNTS),
            procedures=LEDGER_PROCEDURES,
            n_shards=4,
            router="range",
        )
        cluster.submit_many(
            ledger_specs(np.random.default_rng(3), 40, N_ACCOUNTS, 0.2)
        )
        with pytest.raises(ConfigError, match="empty"):
            cluster.request_migration(
                MigrationPlan(src=0, dst=3, key_lo=key_lo, key_hi=key_hi)
            )
        assert len(cluster.pool) == 40
        cluster.run_bulk()
        assert len(cluster.results) == 40

    def test_impossible_request_is_refused_before_the_bulk(self):
        """An impossible plan used to be accepted and then raise from
        inside the next bulk's wave loop, after the pool was drained:
        the caller lost the bulk to a typo."""
        cluster = ClusterTx(
            build_ledger_db(N_ACCOUNTS),
            procedures=LEDGER_PROCEDURES,
            n_shards=4,
            router="range",
        )
        cluster.submit_many(
            ledger_specs(np.random.default_rng(3), 120, N_ACCOUNTS, 0.2)
        )
        queued = [txn.txn_id for txn in cluster.pool]
        # Shard 0 owns [0, 16): it cannot give away [16, 32).
        with pytest.raises(ConfigError, match="not\\s+fully owned"):
            cluster.request_migration(
                MigrationPlan(src=0, dst=3, key_lo=16, key_hi=32)
            )
        assert [txn.txn_id for txn in cluster.pool] == queued
        assert cluster.bulk_seq == 0
        assert len(cluster.results) == 0
        # The slot is still free, and a valid plan still lands at the
        # next wave boundary.
        cluster.request_migration(
            MigrationPlan(src=0, dst=3, key_lo=8, key_hi=16)
        )
        out = cluster.run_bulk()
        assert [(m.src, m.dst, m.key_lo, m.key_hi) for m in out.migrations] == [
            (0, 3, 8, 16)
        ]
        assert (8, 16, 3) in cluster.router.range_table
        while len(cluster.pool):
            cluster.run_bulk()
        assert len(cluster.results) == len(queued)

    def test_one_pending_migration_at_a_time(self):
        cluster = build_cluster()
        cluster.request_migration(
            MigrationPlan(src=0, dst=1, key_lo=8, key_hi=16)
        )
        with pytest.raises(ClusterError, match="pending"):
            cluster.request_migration(
                MigrationPlan(src=2, dst=3, key_lo=40, key_hi=48)
            )


class TestMigrationPlanning:
    def test_plan_splits_widest_range_toward_coolest_peer(self):
        cluster = build_cluster()  # 4 shards x 16 keys
        registry = registry_with_depths({0: 80, 1: 10, 2: 2, 3: 10})
        hot = HotShardDetector().scan(registry, n_shards=4)
        assert hot is not None and hot.shard == 0
        migrator = ShardMigrator(cluster)
        plan = migrator.plan(hot, registry)
        assert plan is not None
        assert plan.src == 0
        assert plan.dst == 2  # least-depth live peer
        # Default split keeps the lower half: [8, 16) moves.
        assert (plan.key_lo, plan.key_hi) == (8, 16)

    def test_plan_declines_single_key_range(self):
        cluster = ClusterTx(
            build_bank_db(2),
            procedures=BANK_PROCEDURES,
            n_shards=2,
            router="range",
        )
        registry = registry_with_depths({0: 80, 1: 2})
        hot = HotShardDetector().scan(registry, n_shards=2)
        assert hot is not None
        assert ShardMigrator(cluster).plan(hot, registry) is None

    def test_executed_plan_updates_router_and_moves_rows(self):
        cluster = build_cluster()
        before = cluster.router.range_table
        report = cluster.migrate(
            MigrationPlan(src=0, dst=2, key_lo=8, key_hi=16)
        )
        assert report.moved_rows == 8
        assert report.moved_bytes > 0
        assert report.seconds > 0.0
        after = cluster.router.range_table
        assert after != before
        assert (8, 16, 2) in after
