"""Integration tests for the sharded cluster runtime.

The correctness bar is Definition 1 (timestamp-order equivalence):
whatever the shard count, router, or cross-shard fraction, the final
merged table state must equal a serial execution of the same
transactions in timestamp order -- checked against both the CPU
oracle and a single-device GPUTx run.

The workload here is a *ledger*: the bank schema of ``conftest`` with
procedures rewritten to address rows through the primary-key index,
because partitioned tables have shard-local physical row ids (global
row positions are meaningless across shards).
"""

import dataclasses
from typing import List, Tuple

import numpy as np
import pytest

from repro import ClusterTx, GPUTx, run_pipelined
from repro.cluster.router import RangeShardRouter
from repro.core.procedure import Access, TransactionType
from repro.core.txn import TransactionPool
from repro.cpu.engine import CpuEngine
from repro.gpu import ops as op_ir
from repro.workloads import tm1

from tests.conftest import build_bank_db

LEDGER = "accounts"


def build_ledger_db(n_accounts: int = 32):
    db = build_bank_db(n_accounts)
    db.create_index("accounts_pk", LEDGER, ["id"])
    return db


def _deposit(account: int, amount: int) -> op_ir.OpStream:
    row = yield op_ir.IndexProbe("accounts_pk", account)
    if row < 0:
        yield op_ir.Abort("no such account")
    balance = yield op_ir.Read(LEDGER, "balance", row)
    yield op_ir.Compute(4)
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
    version = yield op_ir.Read(LEDGER, "version", row)
    return (balance, version)


def _reconcile(a: int, b: int, fail: int) -> op_ir.OpStream:
    """NOT two-phase: writes both accounts, then maybe aborts."""
    row_a = yield op_ir.IndexProbe("accounts_pk", a)
    row_b = yield op_ir.IndexProbe("accounts_pk", b)
    balance_a = yield op_ir.Read(LEDGER, "balance", row_a)
    balance_b = yield op_ir.Read(LEDGER, "balance", row_b)
    mean = (balance_a + balance_b) // 2
    yield op_ir.Write(LEDGER, "balance", row_a, mean)
    yield op_ir.Write(LEDGER, "balance", row_b, balance_a + balance_b - mean)
    if fail:
        yield op_ir.Abort("post-write failure")
    return mean


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
    TransactionType(
        name="reconcile",
        body=_reconcile,
        access_fn=lambda p: [
            Access(int(p[0]), write=True),
            Access(int(p[1]), write=True),
        ],
        partition_fn=lambda p: None,
        two_phase=False,
        conflict_classes=frozenset({LEDGER}),
    ),
]


# Vector forms of the ledger procedures (same op streams as batched
# column kernels), on separate type objects so the stream-only forms
# keep running lane by lane. test_durability_properties uses
# them to compare WAL capture across backends.
def _v_deposit(ctx) -> None:
    row = ctx.index_probe("accounts_pk", ctx.param_i64(0))
    ctx.abort_where(row < 0, "no such account")
    amount = ctx.param_i64(1)
    balance = ctx.read(LEDGER, "balance", row)
    ctx.compute(4)
    ctx.write(LEDGER, "balance", row, balance + amount)
    ctx.finish(balance + amount)


def _v_transfer(ctx) -> None:
    src_row = ctx.index_probe("accounts_pk", ctx.param_i64(0))
    ctx.abort_where(src_row < 0, "no source")
    dst_row = ctx.index_probe("accounts_pk", ctx.param_i64(1))
    ctx.abort_where(dst_row < 0, "no destination")
    amount = ctx.param_i64(2)
    src_balance = ctx.read(LEDGER, "balance", src_row)
    ctx.abort_where(src_balance < amount, "insufficient funds")
    dst_balance = ctx.read(LEDGER, "balance", dst_row)
    ctx.write(LEDGER, "balance", src_row, src_balance - amount)
    ctx.write(LEDGER, "balance", dst_row, dst_balance + amount)
    ctx.finish(src_balance - amount)


def _v_audit(ctx) -> None:
    row = ctx.index_probe("accounts_pk", ctx.param_i64(0))
    ctx.abort_where(row < 0, "no such account")
    balance = ctx.read(LEDGER, "balance", row)
    version = ctx.read(LEDGER, "version", row)
    ctx.finish(balance, version)


def _v_reconcile(ctx) -> None:
    row_a = ctx.index_probe("accounts_pk", ctx.param_i64(0))
    row_b = ctx.index_probe("accounts_pk", ctx.param_i64(1))
    balance_a = ctx.read(LEDGER, "balance", row_a)
    balance_b = ctx.read(LEDGER, "balance", row_b)
    mean = (balance_a + balance_b) // 2
    ctx.write(LEDGER, "balance", row_a, mean)
    ctx.write(LEDGER, "balance", row_b, balance_a + balance_b - mean)
    ctx.abort_where(ctx.param_i64(2) != 0, "post-write failure")
    ctx.finish(mean)


_LEDGER_VECTOR_BODIES = {
    "deposit": _v_deposit,
    "transfer": _v_transfer,
    "audit": _v_audit,
    "reconcile": _v_reconcile,
}

LEDGER_VECTOR_PROCEDURES = [
    dataclasses.replace(t, vector_body=_LEDGER_VECTOR_BODIES[t.name])
    for t in LEDGER_PROCEDURES
]


def ledger_specs(
    rng: np.random.Generator,
    n: int,
    n_accounts: int,
    cross_prob: float,
) -> List[Tuple[str, tuple]]:
    """Mixed ledger workload; ``cross_prob`` of pair transactions."""
    specs: List[Tuple[str, tuple]] = []
    for _ in range(n):
        if rng.random() < cross_prob:
            src = int(rng.integers(0, n_accounts))
            dst = int(rng.integers(0, n_accounts))
            if dst == src:
                dst = (src + 1) % n_accounts
            if rng.random() < 0.3:
                fail = int(rng.random() < 0.5)
                specs.append(("reconcile", (src, dst, fail)))
            else:
                specs.append(("transfer", (src, dst, int(rng.integers(1, 40)))))
        elif rng.random() < 0.5:
            specs.append(
                ("deposit", (int(rng.integers(0, n_accounts)),
                             int(rng.integers(1, 50))))
            )
        else:
            specs.append(("audit", (int(rng.integers(0, n_accounts)),)))
    return specs


def serial_ledger_state(specs, n_accounts):
    db = build_ledger_db(n_accounts)
    cpu = CpuEngine(db, procedures=LEDGER_PROCEDURES, num_cores=1)
    pool = TransactionPool()
    cpu.execute([pool.submit(name, params) for name, params in specs])
    return db.logical_state()


class TestClusterDefinition1:
    """Final state must equal serial timestamp-order execution."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_single_shard_workload(self, rng, n_shards):
        specs = ledger_specs(rng, 120, 32, cross_prob=0.0)
        cluster = ClusterTx(
            build_ledger_db(32), procedures=LEDGER_PROCEDURES,
            n_shards=n_shards,
        )
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="kset")
        assert len(result.results) == 120
        assert result.n_cross_shard == 0
        assert cluster.logical_state() == serial_ledger_state(specs, 32)

    @pytest.mark.parametrize("strategy", ["kset", "tpl", "part", "auto"])
    def test_cross_shard_workload_all_strategies(self, rng, strategy):
        specs = ledger_specs(rng, 150, 32, cross_prob=0.3)
        cluster = ClusterTx(
            build_ledger_db(32), procedures=LEDGER_PROCEDURES, n_shards=4,
        )
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy=strategy)
        assert len(result.results) == 150
        assert result.n_cross_shard > 0
        assert cluster.logical_state() == serial_ledger_state(specs, 32)

    def test_range_router_equivalent_too(self, rng):
        specs = ledger_specs(rng, 100, 32, cross_prob=0.2)
        cluster = ClusterTx(
            build_ledger_db(32), procedures=LEDGER_PROCEDURES, n_shards=4,
            router="range",
        )
        assert isinstance(cluster.router, RangeShardRouter)
        cluster.submit_many(specs)
        cluster.run_bulk(strategy="kset")
        assert cluster.logical_state() == serial_ledger_state(specs, 32)

    def test_outcomes_match_serial_oracle(self, rng):
        """Per-transaction commit/abort decisions match serial order."""
        specs = ledger_specs(rng, 120, 16, cross_prob=0.4)
        oracle_db = build_ledger_db(16)
        cpu = CpuEngine(oracle_db, procedures=LEDGER_PROCEDURES, num_cores=1)
        pool = TransactionPool()
        oracle = cpu.execute(
            [pool.submit(name, params) for name, params in specs]
        )
        cluster = ClusterTx(
            build_ledger_db(16), procedures=LEDGER_PROCEDURES, n_shards=4,
        )
        cluster.submit_many(specs)
        cluster.run_bulk(strategy="kset")
        for expected in oracle.results:
            got = cluster.results.get(expected.txn_id)
            assert got is not None
            assert got.committed == expected.committed, expected

    def test_streaming_kset_defers_younger_waves(self):
        """Streaming K-SET (max_rounds) must not let a younger
        cross-shard transaction run ahead of older deferred work.

        Regression: deposits 0-2 conflict on account 0; with
        max_rounds=1 the shard defers two of them, so the younger
        transfer (which needs all three deposits to have landed) must
        wait for later bulks instead of aborting against stale state.
        """
        specs = [
            ("deposit", (0, 10)),
            ("deposit", (0, 10)),
            ("deposit", (0, 10)),
            ("transfer", (0, 1, 125)),
        ]
        cluster = ClusterTx(
            build_ledger_db(4), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit_many(specs)
        cluster.run_bulk(strategy="kset", max_rounds=1)
        # Deferred work (and the blocked transfer) drains over
        # subsequent bulks, preserving timestamp order.
        for _ in range(10):
            if not len(cluster.pool):
                break
            cluster.run_bulk(strategy="kset", max_rounds=1)
        assert len(cluster.pool) == 0
        assert cluster.results.get(3).committed  # 130 >= 125 serially
        assert cluster.logical_state() == serial_ledger_state(specs, 4)

    def test_sequential_bulks_share_state(self, rng):
        cluster = ClusterTx(
            build_ledger_db(16), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit("deposit", (3, 10))
        cluster.run_bulk(strategy="kset")
        cluster.submit("deposit", (3, 10))
        cluster.run_bulk(strategy="kset")
        state = cluster.logical_state()
        row = next(r for r in state[LEDGER] if r[0] == 3)
        assert row[1] == 120


class TestClusterAcceptance:
    """ISSUE 1's acceptance bar: 4-shard TM1 speedup + equivalence."""

    def test_tm1_four_shards_speedup_and_equivalence(self):
        db = tm1.build_database(scale_factor=4)
        specs = tm1.generate_transactions(db, 4_000, seed=5)

        single = GPUTx(db.clone(), procedures=tm1.PROCEDURES)
        single.submit_many(specs)
        baseline = single.run_bulk(strategy="kset")

        cluster = ClusterTx(db, procedures=tm1.PROCEDURES, n_shards=4)
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="kset")

        assert result.n_cross_shard == 0
        assert len(result.results) == len(baseline.results)
        # Speedup in simulated seconds over the single device.
        assert result.seconds < baseline.seconds
        # Definition-1-equivalent final table state.
        assert cluster.logical_state() == single.db.logical_state()

    def test_cross_shard_fraction_costs_throughput(self):
        seconds = []
        for fraction in (0.0, 0.3):
            db = tm1.build_database(scale_factor=1)
            cluster = ClusterTx(
                db, procedures=tm1.CLUSTER_PROCEDURES, n_shards=4,
            )
            specs = tm1.generate_cluster_transactions(
                db, 300, shard_of=cluster.router.shard_of_key,
                cross_shard_fraction=fraction, seed=9,
            )
            cluster.submit_many(specs)
            result = cluster.run_bulk(strategy="kset")
            assert (result.n_cross_shard > 0) == (fraction > 0)
            seconds.append(result.seconds / max(1, len(result.results)))
        assert seconds[1] > seconds[0]

    def test_per_shard_strategy_choice(self, rng):
        """strategy='auto' lets every shard pick its own executor."""
        specs = ledger_specs(rng, 200, 32, cross_prob=0.0)
        cluster = ClusterTx(
            build_ledger_db(32), procedures=LEDGER_PROCEDURES, n_shards=4,
        )
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="auto")
        wave = result.waves[0]
        assert wave.kind == "parallel"
        assert set(wave.strategies) == set(wave.shards)
        assert all(s in {"kset", "part", "tpl"}
                   for s in wave.strategies.values())


class TestClusterPipelining:
    def test_pipelined_bulks_match_serial_state(self, rng):
        specs_a = ledger_specs(rng, 60, 32, cross_prob=0.0)
        specs_b = ledger_specs(rng, 60, 32, cross_prob=0.0)
        specs_c = ledger_specs(rng, 60, 32, cross_prob=0.0)
        bulks = [specs_a, specs_b, specs_c]

        cluster = ClusterTx(
            build_ledger_db(32), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        report = run_pipelined(cluster, bulks, strategy="kset", depth=2)
        assert report.executed == 180
        pipe = report.pipeline
        assert pipe.pipelined_seconds <= pipe.serial_seconds
        assert pipe.speedup >= 1.0
        assert cluster.logical_state() == serial_ledger_state(
            specs_a + specs_b + specs_c, 32
        )

    def test_pipelined_gputx_overlaps_transfers(self):
        from repro.workloads import micro

        n_tuples = 512
        db = micro.build_database(n_tuples)
        engine = GPUTx(db, procedures=micro.build_procedures(4, x=1))
        bulks = [
            micro.generate_transactions(
                200, n_tuples=n_tuples, n_branches=4, seed=k
            )
            for k in range(4)
        ]
        report = run_pipelined(engine, bulks, strategy="kset", depth=2)
        assert report.executed == 800
        assert report.pipeline.pipelined_seconds < report.pipeline.serial_seconds
        assert report.pipeline.speedup > 1.0


class TestClusterSurface:
    def test_register_after_construction(self):
        cluster = ClusterTx(build_ledger_db(8), n_shards=2)
        for proc in LEDGER_PROCEDURES:
            cluster.register(proc)
        cluster.submit("deposit", (1, 5))
        result = cluster.run_bulk(strategy="kset")
        assert result.committed == 1

    def test_submit_many_accepts_triples(self):
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit_many([("deposit", (1, 5), 0.25)])
        assert next(iter(cluster.pool)).submit_time == 0.25

    def test_empty_bulk_is_noop(self):
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        result = cluster.run_bulk()
        assert result.results == []
        assert result.seconds == 0.0

    def test_unknown_auto_option_preserves_pool(self):
        from repro import ConfigError

        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit("deposit", (1, 5))
        with pytest.raises(ConfigError, match="partion_size"):
            cluster.run_bulk(strategy="auto", partion_size=64)  # typo
        assert len(cluster.pool) == 1
        assert cluster.run_bulk(strategy="auto").committed == 1

    def test_unresolvable_transaction_preserves_pool_and_bulk_seq(self):
        """A declaration that cannot read its parameters fails before
        the bulk counts (scheduled kills are keyed on ``bulk_seq``),
        names the transaction, and leaves the pool as it was."""
        from repro.errors import ProcedureError

        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit_many(
            [("deposit", (1, 5)), ("transfer", (2,)), ("deposit", (3, 1))]
        )
        with pytest.raises(ProcedureError, match=r"transaction 1 \('transfer'\)"):
            cluster.run_bulk(strategy="kset")
        assert [t.txn_id for t in cluster.pool] == [0, 1, 2]
        assert cluster.bulk_seq == 0 and len(cluster.results) == 0
        # execute_bulk resolves before it counts too (the serve loop
        # and the pipeline hand it batches they own).
        with pytest.raises(ProcedureError, match="transaction 1"):
            cluster.execute_bulk(cluster.pool.peek(), strategy="kset")
        assert cluster.bulk_seq == 0
        cluster.pool.take_matching([1])
        assert cluster.run_bulk(strategy="kset").committed == 2
        assert cluster.bulk_seq == 1

    def test_explicit_strategy_rejects_misdirected_option(self, rng):
        """PR 1's validate_strategy_options contract at the ClusterTx
        level: an option owned by another strategy is rejected before
        any shard's pool is drained."""
        from repro import ConfigError

        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit("deposit", (1, 5))
        with pytest.raises(ConfigError, match="does not accept"):
            cluster.run_bulk(strategy="kset", partition_size=64)
        assert len(cluster.pool) == 1
        # execute_bulk validates too, so the pipelined path is covered.
        with pytest.raises(ConfigError, match="does not accept"):
            cluster.execute_bulk(cluster.pool.peek(), strategy="tpl",
                                 max_rounds=2)
        assert cluster.run_bulk(strategy="kset").committed == 1

    @pytest.mark.parametrize(
        "strategy, option",
        [
            ("part", {"partition_size": 0}),
            ("tpl", {"grouping_passes": -1}),
            ("kset", {"max_rounds": 0}),
            ("kset", {"max_rounds": True}),
            ("tpl", {"grouping_passes": True}),
            ("part", {"partition_size": True}),
        ],
    )
    def test_out_of_range_option_value_preserves_pool(self, strategy, option):
        from repro import ConfigError

        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit("deposit", (1, 5))
        with pytest.raises(ConfigError, match=next(iter(option))):
            cluster.run_bulk(strategy=strategy, **option)
        assert len(cluster.pool) == 1
        assert cluster.run_bulk(strategy=strategy).committed == 1

    def test_numpy_integer_option_is_accepted(self):
        """``max_rounds=np.int64(1)`` used to be rejected as "must be an
        int": a streaming K-SET bulk runs one round per shard and defers
        the rest of each chain."""
        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit_many([("deposit", (1, 5))] * 3)
        result = cluster.run_bulk(strategy="kset", max_rounds=np.int64(1))
        assert result.committed == 1 and len(cluster.pool) == 2

    def test_unknown_strategy_rejected_cluster_level(self):
        from repro import ConfigError

        cluster = ClusterTx(
            build_ledger_db(8), procedures=LEDGER_PROCEDURES, n_shards=2,
        )
        cluster.submit("deposit", (1, 5))
        with pytest.raises(ConfigError, match="unknown strategy"):
            cluster.run_bulk(strategy="ksett")
        assert len(cluster.pool) == 1

    def test_auto_option_refused_before_any_shard_runs(self, rng):
        """Under 'auto' each shard picks its own strategy, so an option
        would reach some shards' executors and not others' (the cluster
        used to drop it with one warning). It is refused before the
        pool is drained, and the same bulk then runs under 'auto'."""
        from repro import ConfigError

        specs = ledger_specs(rng, 200, 32, cross_prob=0.0)
        cluster = ClusterTx(
            build_ledger_db(32), procedures=LEDGER_PROCEDURES, n_shards=4,
        )
        cluster.submit_many(specs)
        with pytest.raises(ConfigError, match=r"\['adhoc'\]"):
            cluster.run_bulk(strategy="auto", per_task_launch_overhead=True)
        assert len(cluster.pool) == 200 and len(cluster.results) == 0
        result = cluster.run_bulk(strategy="auto")
        assert set(result.waves[0].strategies) == {0, 1, 2, 3}
        assert cluster.logical_state() == serial_ledger_state(specs, 32)

    def test_replicated_table_mutation_detected(self):
        """Replicated (partition-key-less) tables are read-only: a
        shard-local write desyncs the replicas and must fail loudly."""
        from repro import ClusterError
        from repro.storage.schema import ColumnDef, DataType, TableSchema

        db = build_ledger_db(8)
        dim = db.create_table(
            TableSchema(
                "dimension",
                [ColumnDef("k", DataType.INT64),
                 ColumnDef("v", DataType.INT64)],
            )
        )
        dim.append_rows([(0, 10)])

        def _poke() -> op_ir.OpStream:
            old = yield op_ir.Read("dimension", "v", 0)
            yield op_ir.Write("dimension", "v", 0, old + 1)
            return old

        poke = TransactionType(
            name="poke_dimension",
            body=_poke,
            access_fn=lambda p: [],
            partition_fn=lambda p: None,
            two_phase=True,
            conflict_classes=frozenset({"dimension"}),
        )
        cluster = ClusterTx(
            db, procedures=LEDGER_PROCEDURES + [poke], n_shards=2,
        )
        cluster.submit("poke_dimension", ())
        with pytest.raises(ClusterError, match="replicated table"):
            cluster.run_bulk(strategy="kset")

    def test_initialize_devices_returns_slowest_shard(self):
        cluster = ClusterTx(
            build_ledger_db(64), procedures=LEDGER_PROCEDURES, n_shards=4,
        )
        seconds = cluster.initialize_devices()
        assert seconds == max(
            engine.pcie.ledger.seconds_by_component["initialization"]
            for engine in cluster.shards
        )
        assert seconds > 0
