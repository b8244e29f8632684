"""Definition 1 correctness: every strategy equals serial execution.

"A bulk execution is correct if and only if the result database is the
same as that of sequentially executing the transactions in the bulk in
the increasing order of their timestamps." The serial oracle is the
single-core CPU engine; each timestamp-preserving strategy must land on
the identical logical database state.
"""

import numpy as np
import pytest

from repro import ClusterOptions, ClusterTx, CpuEngine, EngineOptions, GPUTx
from repro.core.procedure import Access, TransactionType
from repro.gpu import ops as op_ir
from repro.storage.catalog import StoreAdapter
from repro.workloads import micro

from tests.conftest import (
    BANK_PROCEDURES,
    build_bank_db,
    make_transactions,
    random_bank_specs,
    serial_oracle_state,
)

TS_STRATEGIES = ["tpl", "part", "kset", "adhoc"]


def run_strategy(strategy: str, specs, n_accounts=32, **options):
    db = build_bank_db(n_accounts)
    engine = GPUTx(db, procedures=BANK_PROCEDURES)
    engine.submit_many(specs)
    result = engine.run_bulk(strategy=strategy, **options)
    return db.logical_state(), result


@pytest.mark.parametrize("strategy", TS_STRATEGIES)
class TestMatchesSerialOracle:
    def test_disjoint_workload(self, strategy):
        specs = [("deposit", (i, 10)) for i in range(24)]
        state, result = run_strategy(strategy, specs)
        assert state == serial_oracle_state(specs)
        assert result.committed == 24

    def test_hot_item_chain(self, strategy):
        """Every transaction hits account 0: total order enforced."""
        specs = [("deposit", (0, 1)) for _ in range(20)]
        state, result = run_strategy(strategy, specs)
        assert state == serial_oracle_state(specs)
        account0 = next(r for r in state["accounts"] if r[0] == 0)
        assert account0[1] == 120  # 100 + 20 deposits

    def test_mixed_random_workload(self, strategy):
        rng = np.random.default_rng(99)
        specs = random_bank_specs(rng, 120, 16)
        # 'transfer' is cross-partition: PART degrades to its TPL
        # fallback, which is part of the behaviour under test.
        state, result = run_strategy(strategy, specs, n_accounts=16)
        assert state == serial_oracle_state(specs, n_accounts=16)

    def test_read_write_interleave_order(self, strategy):
        """Audits interleaved with deposits read timestamp-consistent
        values in the final state (writes ordered by timestamp)."""
        specs = []
        for i in range(10):
            specs.append(("deposit", (3, 2)))
            specs.append(("audit", (3,)))
        state, _ = run_strategy(strategy, specs)
        assert state == serial_oracle_state(specs)
        account3 = next(r for r in state["accounts"] if r[0] == 3)
        assert account3[1] == 120

    def test_aborts_leave_no_trace(self, strategy):
        specs = [
            ("deposit", (1, 10)),
            ("transfer", (1, 2, 10_000)),  # aborts: insufficient funds
            ("deposit", (2, 5)),
        ]
        state, result = run_strategy(strategy, specs)
        assert state == serial_oracle_state(specs)
        assert result.aborted == 1

    def test_grouping_does_not_change_results(self, strategy):
        if strategy not in ("tpl", "kset"):
            pytest.skip("grouping applies to tpl/kset only")
        rng = np.random.default_rng(7)
        specs = random_bank_specs(rng, 60, 8)
        state, _ = run_strategy(strategy, specs, n_accounts=8,
                                grouping_passes=2)
        assert state == serial_oracle_state(specs, n_accounts=8)


class TestPartSpecifics:
    def test_partition_size_coarsening_correct(self):
        specs = [("deposit", (i % 12, 3)) for i in range(48)]
        state, _ = run_strategy("part", specs, partition_size=4)
        assert state == serial_oracle_state(specs)

    def test_cross_partition_falls_back_to_tpl(self):
        specs = [("transfer", (0, 1, 5)), ("deposit", (2, 1))]
        _state, result = run_strategy("part", specs)
        assert result.strategy == "part(tpl-fallback)"

    def test_single_partition_stays_part(self):
        specs = [("deposit", (i, 1)) for i in range(8)]
        _state, result = run_strategy("part", specs)
        assert result.strategy == "part"


class TestRelaxedStrategies:
    """Appendix G drops the timestamp constraint: results must still be
    *serializable* -- identical to serial order on commutative or
    conflict-free workloads."""

    @pytest.mark.parametrize(
        "strategy", ["tpl-relaxed", "part-relaxed", "kset-relaxed"]
    )
    def test_commutative_workload_equals_serial(self, strategy):
        # Deposits commute, so any serialization gives the same state.
        specs = [("deposit", (i % 8, 5)) for i in range(40)]
        state, result = run_strategy(strategy, specs, n_accounts=8)
        assert state == serial_oracle_state(specs, n_accounts=8)
        assert result.committed == 40

    @pytest.mark.parametrize(
        "strategy", ["tpl-relaxed", "part-relaxed", "kset-relaxed"]
    )
    def test_disjoint_workload_exact(self, strategy):
        specs = [("deposit", (i, 7)) for i in range(16)]
        state, _ = run_strategy(strategy, specs, n_accounts=16)
        assert state == serial_oracle_state(specs, n_accounts=16)

    def test_relaxed_generation_cheaper_than_constrained(self):
        specs = [("deposit", (i % 8, 5)) for i in range(64)]
        _, constrained = run_strategy("kset", specs, n_accounts=8)
        _, relaxed = run_strategy("kset-relaxed", specs, n_accounts=8)
        assert (
            relaxed.breakdown.phases["generation"]
            < constrained.breakdown.phases["generation"]
        )


class TestAutoStrategy:
    def test_auto_picks_and_executes(self):
        specs = [("deposit", (i, 1)) for i in range(32)]
        db = build_bank_db(32)
        engine = GPUTx(db, procedures=BANK_PROCEDURES)
        engine.submit_many(specs)
        result = engine.run_bulk(strategy="auto")
        # Wide 0-set but below the GPU-sized w0_bar: Algorithm 1 goes
        # to PART (no cross-partition transactions).
        assert result.strategy in ("part", "kset", "tpl")
        assert db.logical_state() == serial_oracle_state(specs)
        assert "profiling" in result.breakdown.phases


# ---------------------------------------------------------------------------
# An aborted transaction that deletes the row it inserted: the rollback
# must cancel the delete before the insert (reverse op order), or the
# row comes back to life, live and indexed.
# ---------------------------------------------------------------------------
CHURN_KEY = 100


def _churn(a, b):
    row = yield op_ir.InsertRow(micro.TABLE, (CHURN_KEY, 0.0, 0))
    yield op_ir.DeleteRow(micro.TABLE, row)
    yield op_ir.Abort("churn refused")


#: Not two-phase; tuples 0 and 1 sit on different shards of a two-shard
#: hash-routed cluster, so the cluster sends it through the leader,
#: while its partition key lets PART run it without the TPL fallback.
CHURN = TransactionType(
    name="churn",
    body=_churn,
    access_fn=lambda p: [Access(int(p[0]), write=True),
                         Access(int(p[1]), write=True)],
    partition_fn=lambda p: int(p[0]),
    two_phase=False,
    conflict_classes=frozenset({micro.TABLE}),
    vector_inserts=frozenset({micro.TABLE}),
)
CHURN_PROCEDURES = micro.build_pair_procedures(1) + [CHURN]
CHURN_SPECS = [
    ("micro_pair_0", (2, 2)), ("churn", (0, 1)), ("micro_pair_0", (3, 3)),
]

CHURN_PATHS = ["cpu", "leader-serial", "leader-parallel", "adhoc"] + [
    f"{strategy}-{backend}"
    for strategy in ("kset", "tpl", "part")
    for backend in ("interpreted", "vectorized")
]


def _run_churn(path):
    """Run the churn bulk on ``path``. Returns the results, the
    database that holds key ``CHURN_KEY``'s table, and a
    ``(state, oracle state)`` projection pair: physical state on one
    database, logical state on a cluster (its rows sit on shards)."""
    db = micro.build_database(4, with_index=True)
    oracle = micro.build_database(4, with_index=True)
    CpuEngine(oracle, procedures=CHURN_PROCEDURES, num_cores=1).execute(
        make_transactions(CHURN_SPECS)
    )
    if path == "cpu":
        cpu = CpuEngine(db, procedures=CHURN_PROCEDURES, num_cores=1)
        result = cpu.execute(make_transactions(CHURN_SPECS))
    elif path.startswith("leader-"):
        cluster = ClusterTx(
            db, procedures=CHURN_PROCEDURES, n_shards=2,
            options=ClusterOptions(cross_shard=path.split("-")[1]),
        )
        cluster.submit_many(CHURN_SPECS)
        result = cluster.run_bulk(strategy="kset")
        assert result.n_cross_shard == 1
        shard_db = cluster.shards[cluster.router.shard_of_key(CHURN_KEY)].db
        return result.results, shard_db, (
            cluster.logical_state(), oracle.logical_state()
        )
    else:
        strategy, _, backend = path.partition("-")
        engine = GPUTx(
            db, procedures=CHURN_PROCEDURES,
            options=EngineOptions(backend=backend or "interpreted"),
        )
        engine.submit_many(CHURN_SPECS)
        result = engine.run_bulk(strategy=strategy)
        assert result.strategy == strategy
    return result.results, db, (db.physical_state(), oracle.physical_state())


@pytest.mark.parametrize("path", CHURN_PATHS)
def test_an_aborted_insert_then_delete_stays_deleted(path):
    results, db, (state, oracle_state) = _run_churn(path)
    assert [r.committed for r in results] == [True, False, True]
    assert db.physical_state()[micro.TABLE][-1] == ((CHURN_KEY, 0.0, 0), True)
    assert StoreAdapter(db).probe("tuples_pk", CHURN_KEY) == -1
    assert state == oracle_state


# ---------------------------------------------------------------------------
# A partition-mate of an aborted insert: PART rolls the insert back at the
# abort, before the partition's next transaction runs.
# ---------------------------------------------------------------------------
def _insert_then_abort(part):
    yield op_ir.InsertRow(micro.TABLE, (CHURN_KEY, 0.0, 0))
    yield op_ir.Abort("insert refused")


def _insert_churn_key(part):
    yield op_ir.InsertRow(micro.TABLE, (CHURN_KEY, 1.0, 0))


def _probe_churn_key(part):
    row = yield op_ir.IndexProbe("tuples_pk", CHURN_KEY)
    return row


def _delete_own_row(part, fail=False):
    row = yield op_ir.IndexProbe("tuples_pk", part)
    yield op_ir.DeleteRow(micro.TABLE, row)
    if fail:
        yield op_ir.Abort("delete refused")
    return row


def _in_partition(name, body, two_phase=True):
    return TransactionType(
        name=name,
        body=body,
        access_fn=lambda p: [Access(int(p[0]), write=True)],
        partition_fn=lambda p: int(p[0]),
        two_phase=two_phase,
        conflict_classes=frozenset({micro.TABLE}),
        vector_inserts=frozenset({micro.TABLE}),
    )


MATE_PROCEDURES = [
    _in_partition("insert_abort", _insert_then_abort, two_phase=False),
    _in_partition("insert_churn_key", _insert_churn_key),
    _in_partition("probe_churn_key", _probe_churn_key),
    _in_partition("delete_own_row", _delete_own_row, two_phase=False),
]
#: Partition 1 re-inserts the key an aborted insert staged; partition 2
#: deletes the row an aborted delete staged the delete of.
MATE_SPECS = [
    ("insert_abort", (1,)), ("probe_churn_key", (1,)),
    ("insert_churn_key", (1,)),
    ("delete_own_row", (2, True)), ("delete_own_row", (2,)),
]


@pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
def test_a_partition_mate_never_sees_an_aborted_insert(backend):
    oracle = micro.build_database(4, with_index=True)
    expected = CpuEngine(oracle, procedures=MATE_PROCEDURES, num_cores=1).execute(
        make_transactions(MATE_SPECS)
    )
    db = micro.build_database(4, with_index=True)
    engine = GPUTx(
        db, procedures=MATE_PROCEDURES, options=EngineOptions(backend=backend)
    )
    engine.submit_many(MATE_SPECS)
    result = engine.run_bulk(strategy="part")
    assert result.strategy == "part"
    outcomes = [(r.committed, r.value) for r in result.results]
    assert outcomes == [(r.committed, r.value) for r in expected.results]
    assert outcomes == [
        (False, None), (True, -1), (True, None), (False, None), (True, 2),
    ]
    assert db.physical_state() == oracle.physical_state()
    assert StoreAdapter(db).probe("tuples_pk", CHURN_KEY) == 5
