"""The cross-shard leader is the CPU engine (one serial interpreter).

``CrossShardCoordinator`` and ``CpuEngine`` both execute through
:func:`repro.cpu.engine.run_serial`; the leader only swaps in the
cluster-wide store view and refuses device locks. For random TM1
waves -- the cross-shard ``tm1_sync_location`` pairs *and* the
standard mix, whose aborts and inserts/deletes exercise the inline
compensation paths -- the leader pass over N shards and ``CpuEngine``
over the unpartitioned database must agree per transaction on
``(cycles, committed, reason, value)``, and on the wave's total time
to the last bit.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ClusterTx, CpuEngine, ExecutionError, TransactionPool
from repro.core.oparray import OpArray
from repro.core.procedure import Access, TransactionType
from repro.gpu import ops as op_ir
from repro.workloads import tm1


def leader_and_cpu(n_shards, fraction, n, seed):
    db = tm1.build_database(1, seed=3)
    cluster = ClusterTx(
        db, procedures=tm1.CLUSTER_PROCEDURES, n_shards=n_shards
    )
    cpu = CpuEngine(
        db.clone(), procedures=tm1.CLUSTER_PROCEDURES, num_cores=1
    )
    pool = TransactionPool()
    pool.submit_specs(
        tm1.generate_cluster_transactions(
            db, n, shard_of=cluster.router.shard_of_key,
            cross_shard_fraction=fraction, seed=seed,
        )
    )
    wave = pool.take()
    shard_map = cluster.router.shard_map(
        OpArray.of_bulk(cluster.registry, wave)
    )
    return cluster, cpu, wave, shard_map


def outcome(result):
    return (
        result.txn_id, result.committed, result.abort_reason, result.value
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_shards=st.sampled_from([2, 3, 4]),
    fraction=st.sampled_from([0.1, 0.5, 1.0]),
    n=st.integers(20, 60),
    seed=st.integers(0, 2**16),
)
@example(n_shards=3, fraction=0.1, n=200, seed=1)
def test_leader_wave_equals_cpu_engine(n_shards, fraction, n, seed):
    cluster, cpu, wave, shard_map = leader_and_cpu(
        n_shards, fraction, n, seed
    )
    assert any(len(shard_map[t.txn_id]) > 1 for t in wave)
    led = cluster.coordinator.execute(wave, shard_map)
    ran = cpu.execute(wave)
    assert [outcome(r) for r in led.results] == [
        outcome(r) for r in ran.results
    ]
    if n == 200:  # the pinned example: big enough to hold aborts
        assert any(not r.committed for r in ran.results)
    # One core, so the CPU makespan is the same left-to-right cycle
    # sum the serial leader reports: equal to the last bit.
    assert led.exec_seconds == ran.seconds
    assert cluster.logical_state() == cpu.db.logical_state()


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**16))
def test_each_transaction_costs_the_same_cycles(seed):
    """Per transaction: run the wave one transaction at a time on both
    sides, so each ``seconds`` is that transaction's cycles alone."""
    cluster, cpu, wave, shard_map = leader_and_cpu(3, 0.5, 24, seed)
    for txn in wave:
        led = cluster.coordinator.execute([txn], shard_map)
        ran = cpu.execute([txn])
        assert outcome(led.results[0]) == outcome(ran.results[0])
        assert led.exec_seconds == ran.seconds


def _locking_type() -> TransactionType:
    def body(key: int) -> op_ir.OpStream:
        yield op_ir.LockAcquire(7)
        yield op_ir.Compute(1)
        yield op_ir.LockRelease(7)
        return key

    return TransactionType(
        name="takes_a_lock",
        body=body,
        access_fn=lambda p: [Access(int(p[0]), write=True)],
        partition_fn=lambda p: int(p[0]),
    )


def test_leader_still_refuses_device_locks():
    """The refusal is a check on the shared interpreter, not a second
    interpreter: the CPU engine charges a lock op one cycle, the
    leader -- which has no kernel for a lock to order -- raises."""
    cluster, cpu, _wave, _shard_map = leader_and_cpu(2, 0.0, 4, 0)
    cluster.register(_locking_type())
    cpu.register(_locking_type())
    txn = TransactionPool().submit("takes_a_lock", (5,))
    assert cpu.execute([txn]).results[0].value == 5
    with pytest.raises(ExecutionError, match="LockAcquire"):
        cluster.coordinator.execute([txn], {txn.txn_id: frozenset({0, 1})})
