"""Integration tests for the grouped parallel cross-shard commit.

ISSUE 7's tentpole: the cross-shard leader no longer interprets waves
serially -- it conflict-partitions them into independent groups (the
TDG's connected components) and models their execution in parallel on
their home shards. These tests pin the observable contract:

* ``cross_shard="parallel"`` (the default) is byte-identical to the
  serial-leader oracle -- outcomes, logical state, per-shard physical
  row order -- on the same workload;
* the grouped commit is strictly faster on coordinator waves at 4+
  shards (the CLUSTER-3 claim, at integration-test scale);
* conflict groups really partition the wave by data conflicts;
* telemetry shows per-group spans on the home shards' lanes instead
  of one opaque leader span.
"""

import pytest

import repro.telemetry as telemetry
from repro import ClusterOptions, ClusterTx
from repro.core.oparray import OpArray
from repro.core.txn import TransactionPool
from repro.errors import ConfigError

from tests.integration.test_cluster import (
    LEDGER_PROCEDURES,
    build_ledger_db,
    ledger_specs,
    serial_ledger_state,
)

N_ACCOUNTS = 32


def run_mode(specs, mode, n_shards=4):
    cluster = ClusterTx(
        build_ledger_db(N_ACCOUNTS),
        procedures=LEDGER_PROCEDURES,
        n_shards=n_shards,
        options=ClusterOptions(cross_shard=mode),
    )
    cluster.submit_many(specs)
    result = cluster.run_bulk(strategy="kset")
    return cluster, result


def coordinator_seconds(result):
    return sum(w.seconds for w in result.waves if w.kind == "coordinator")


class TestModeEquivalence:
    def test_parallel_matches_serial_oracle_byte_for_byte(self, rng):
        specs = ledger_specs(rng, 150, N_ACCOUNTS, cross_prob=0.3)
        serial_cluster, serial = run_mode(specs, "serial")
        parallel_cluster, parallel = run_mode(specs, "parallel")
        assert parallel_cluster.logical_state() == serial_ledger_state(
            specs, N_ACCOUNTS
        )
        assert (
            parallel_cluster.logical_state() == serial_cluster.logical_state()
        )
        for ours, theirs in zip(
            parallel_cluster.shards, serial_cluster.shards
        ):
            assert ours.db.physical_state() == theirs.db.physical_state()
        assert [
            (r.txn_id, r.committed, r.abort_reason) for r in parallel.results
        ] == [
            (r.txn_id, r.committed, r.abort_reason) for r in serial.results
        ]

    def test_parallel_is_default_and_labels_waves(self, rng):
        specs = ledger_specs(rng, 80, N_ACCOUNTS, cross_prob=0.4)
        cluster, result = run_mode(specs, "parallel")
        assert cluster.cross_shard == "parallel"
        coordinator_waves = [
            w for w in result.waves if w.kind == "coordinator"
        ]
        assert coordinator_waves
        assert all(
            w.leader_strategy == "leader-parallel" for w in coordinator_waves
        )
        assert all(w.groups >= 1 for w in coordinator_waves)
        assert result.n_groups == sum(w.groups for w in coordinator_waves)
        # strategies_used counts *transactions* per commit path.
        assert result.strategies_used()["leader-parallel"] == sum(
            w.size for w in coordinator_waves
        )

    def test_serial_mode_keeps_old_label(self, rng):
        specs = ledger_specs(rng, 80, N_ACCOUNTS, cross_prob=0.4)
        _, result = run_mode(specs, "serial")
        coordinator_waves = [
            w for w in result.waves if w.kind == "coordinator"
        ]
        assert coordinator_waves
        assert all(
            w.leader_strategy == "leader" for w in coordinator_waves
        )
        assert result.n_groups == 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError, match="cross_shard"):
            ClusterTx(
                build_ledger_db(N_ACCOUNTS),
                procedures=LEDGER_PROCEDURES,
                n_shards=2,
                options=ClusterOptions(cross_shard="magic"),
            )

    def test_parallel_coordinator_faster_at_four_shards(self, rng):
        specs = ledger_specs(rng, 200, N_ACCOUNTS, cross_prob=0.3)
        _, serial = run_mode(specs, "serial")
        _, parallel = run_mode(specs, "parallel")
        assert coordinator_seconds(parallel) < coordinator_seconds(serial)


class TestConflictGroups:
    def groups_of(self, specs):
        cluster = ClusterTx(
            build_ledger_db(N_ACCOUNTS),
            procedures=LEDGER_PROCEDURES,
            n_shards=2,
        )
        pool = TransactionPool()
        txns = [pool.submit(name, params) for name, params in specs]
        return txns, cluster.coordinator.conflict_groups(
            txns, OpArray.of_bulk(cluster.registry, txns)
        )

    def test_disjoint_transfers_split_overlapping_merge(self):
        txns, groups = self.groups_of(
            [
                ("transfer", (0, 1, 5)),   # group A: accounts {0, 1, 2}
                ("transfer", (4, 5, 5)),   # group B: accounts {4, 5}
                ("transfer", (1, 2, 5)),   # joins A via account 1
            ]
        )
        assert [[t.txn_id for t in g] for g in groups] == [[0, 2], [1]]

    def test_groups_partition_the_wave(self, rng):
        specs = ledger_specs(rng, 60, N_ACCOUNTS, cross_prob=0.5)
        txns, groups = self.groups_of(specs)
        seen = [t.txn_id for g in groups for t in g]
        assert sorted(seen) == [t.txn_id for t in txns]
        # Deterministic order: groups by oldest member, members in
        # timestamp order.
        assert [g[0].txn_id for g in groups] == sorted(
            g[0].txn_id for g in groups
        )
        assert all(
            [t.txn_id for t in g] == sorted(t.txn_id for t in g)
            for g in groups
        )


class TestGroupTelemetry:
    def test_group_spans_land_on_shard_lanes(self, rng):
        specs = ledger_specs(rng, 100, N_ACCOUNTS, cross_prob=0.4)
        with telemetry.session() as tel:
            cluster, result = run_mode(specs, "parallel")
        group_spans = [
            s for s in tel.tracer.spans if s.name.startswith("group-")
        ]
        assert len(group_spans) == result.n_groups
        # Each group span sits on its home shard's lane, under the
        # coordinator wave span, not on the cluster lane.
        assert all(s.track.startswith("shard") for s in group_spans)
        by_id = {s.span_id: s for s in tel.tracer.spans}
        parents = [by_id[s.parent_id] for s in group_spans]
        assert {p.tags.get("mode") for p in parents} == {"parallel"}
        assert all(p.name.startswith("wave-") for p in parents)
        assert all(
            s.tags["txn_lo"] <= s.tags["txn_hi"] for s in group_spans
        )
