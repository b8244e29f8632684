"""Property-based tests for the grouped parallel cross-shard commit.

For random cross-shard-heavy workloads (fractions around 0.1 / 0.3 /
0.6) and random shard-kill points landing around cross-shard waves,
the parallel commit path must be unobservable except on the clock:

* outcomes, logical state, and per-shard *physical* state of a
  crashed-then-recovered parallel run are byte-identical to an
  uninterrupted parallel run and to the serial-leader oracle
  (``cross_shard="serial"``);
* the simulated clock is deterministic: re-running the identical
  scenario (same bulks, same kill point) reproduces every bulk's
  simulated seconds bit-for-bit.

Kills are wave-granular (durability seals WALs per wave), so a kill
point aimed mid-bulk exercises the halt/requeue of whatever follows --
including cross-shard waves in flight behind it.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ClusterOptions, ClusterTx, DurabilityConfig

from tests.integration.test_cluster import (
    LEDGER_PROCEDURES,
    build_ledger_db,
    ledger_specs,
    serial_ledger_state,
)

N_ACCOUNTS = 24


def run_cluster(bulks, n_shards, mode, kill=None):
    """Drain ``bulks`` under one commit mode; return the cluster, the
    failover reports, and every bulk's simulated seconds."""
    cluster = ClusterTx(
        build_ledger_db(N_ACCOUNTS),
        procedures=LEDGER_PROCEDURES,
        n_shards=n_shards,
        options=ClusterOptions(
            cross_shard=mode,
            durability=DurabilityConfig(checkpoint_interval=2, n_replicas=1),
        ),
    )
    if kill is not None:
        shard, bulk, wave = kill
        cluster.failover.schedule_kill(shard, bulk=bulk, wave=wave)
    reports, seconds = [], []
    for bulk in bulks:
        cluster.submit_many(bulk)
        while len(cluster.pool):
            result = cluster.run_bulk(strategy="kset")
            reports.extend(result.failovers)
            seconds.append(result.seconds)
    return cluster, reports, seconds


def assert_same_state(got: ClusterTx, want: ClusterTx):
    """Byte-identity: logical state, per-shard physical row order, and
    the full per-transaction commit/abort set."""
    assert got.logical_state() == want.logical_state()
    for got_engine, want_engine in zip(got.shards, want.shards):
        assert (
            got_engine.db.physical_state() == want_engine.db.physical_state()
        )
    assert len(got.results) == len(want.results)
    for txn_id in range(len(want.results)):
        theirs = want.results.get(txn_id)
        ours = got.results.get(txn_id)
        assert ours is not None
        assert ours.committed == theirs.committed
        assert ours.abort_reason == theirs.abort_reason


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_parallel_commit_survives_random_kills(data):
    seed = data.draw(st.integers(0, 2**20), label="seed")
    n_shards = data.draw(st.sampled_from([2, 3, 4]), label="n_shards")
    n_bulks = data.draw(st.integers(2, 4), label="n_bulks")
    bulk_size = data.draw(st.integers(8, 30), label="bulk_size")
    cross = data.draw(st.sampled_from([0.1, 0.3, 0.6]), label="cross")
    kill_shard = data.draw(st.integers(0, n_shards - 1), label="kill_shard")
    kill_bulk = data.draw(st.integers(0, n_bulks - 1), label="kill_bulk")
    kill_wave = data.draw(st.integers(0, 3), label="kill_wave")

    rng = np.random.default_rng(seed)
    bulks = [
        ledger_specs(rng, bulk_size, N_ACCOUNTS, cross)
        for _ in range(n_bulks)
    ]
    # Deterministic flush bulk: guarantees a wave boundary after any
    # kill point so the scheduled kill always fires.
    bulks.append([("deposit", (0, 1))])
    all_specs = [spec for bulk in bulks for spec in bulk]
    kill = (kill_shard, kill_bulk, kill_wave)

    oracle, oracle_reports, _ = run_cluster(bulks, n_shards, "serial")
    assert oracle_reports == []
    assert oracle.logical_state() == serial_ledger_state(
        all_specs, N_ACCOUNTS
    )

    reference, ref_reports, ref_seconds = run_cluster(
        bulks, n_shards, "parallel"
    )
    assert ref_reports == []
    assert_same_state(reference, oracle)

    crashed, reports, crashed_seconds = run_cluster(
        bulks, n_shards, "parallel", kill=kill
    )
    assert [r.shard for r in reports] == [kill_shard]
    assert reports[0].verified
    assert_same_state(crashed, oracle)
    assert_same_state(crashed, reference)

    # Simulated clock determinism, bit for bit: the same scenario
    # (with and without the kill) reproduces every bulk's seconds.
    _, _, again_seconds = run_cluster(bulks, n_shards, "parallel")
    assert again_seconds == ref_seconds
    _, _, crashed_again_seconds = run_cluster(
        bulks, n_shards, "parallel", kill=kill
    )
    assert crashed_again_seconds == crashed_seconds
