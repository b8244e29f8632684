"""End-to-end tests of the GPUTx engine facade."""

import warnings

import numpy as np
import pytest

from repro import ClusterTx, CpuEngine, GPUTx, TransactionPool
from repro.errors import ConfigError, ProcedureError, RegistrationError
from repro.workloads import micro, smallbank, tpcb

from tests.conftest import BANK_PROCEDURES, build_bank_db, deadline


class TestEngineLifecycle:
    def test_submit_run_collect(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        engine.submit("deposit", (0, 5))
        engine.submit("audit", (0,))
        result = engine.run_bulk(strategy="kset")
        assert len(result.results) == 2
        assert engine.results.get(0).committed
        assert engine.results.get(1).value == (105, 0)

    def test_empty_pool_is_noop(self):
        engine = GPUTx(build_bank_db(4), procedures=BANK_PROCEDURES)
        result = engine.run_bulk(strategy="kset")
        assert result.results == []
        assert result.seconds == 0.0

    def test_max_txns_leaves_remainder_in_pool(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        for i in range(10):
            engine.submit("deposit", (i % 8, 1))
        engine.run_bulk(strategy="kset", max_txns=4)
        assert len(engine.pool) == 6
        engine.run_bulk(strategy="kset")
        assert len(engine.pool) == 0
        assert len(engine.results) == 10

    def test_unknown_strategy_rejected(self):
        engine = GPUTx(build_bank_db(4), procedures=BANK_PROCEDURES)
        engine.submit("deposit", (0, 1))
        with pytest.raises(ConfigError, match="unknown strategy"):
            engine.run_bulk(strategy="warp-drive")

    def test_late_registration(self):
        engine = GPUTx(build_bank_db(4))
        engine.register(BANK_PROCEDURES[0])
        engine.submit("deposit", (1, 2))
        result = engine.run_bulk(strategy="kset")
        assert result.committed == 1

    def test_initialize_device_charges_pcie(self):
        engine = GPUTx(build_bank_db(1024), procedures=BANK_PROCEDURES)
        seconds = engine.initialize_device()
        assert seconds > 0
        ledger = engine.pcie.ledger
        assert ledger.bytes_by_component["initialization"] > 0

    def test_profile_pool(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        for i in range(6):
            engine.submit("deposit", (0, 1))
        profile = engine.profile_pool()
        assert profile.size == 6
        assert profile.w0 == 1
        assert len(engine.pool) == 6  # profiling does not consume

    def test_sequential_bulks_share_state(self):
        engine = GPUTx(build_bank_db(4), procedures=BANK_PROCEDURES)
        engine.submit("deposit", (0, 10))
        engine.run_bulk(strategy="kset")
        engine.submit("deposit", (0, 10))
        engine.run_bulk(strategy="part")
        assert engine.db.table("accounts").read("balance", 0) == 120


class TestArrivalSimulation:
    """Figures 9 / 15: response time vs. throughput."""

    @staticmethod
    def make_engine(n_tuples=256):
        db = micro.build_database(n_tuples)
        return GPUTx(db, procedures=micro.build_procedures(4, x=1))

    @staticmethod
    def workload(n, n_tuples=256):
        return micro.generate_transactions(
            n, n_tuples=n_tuples, n_branches=4, seed=3
        )

    def test_all_transactions_executed(self):
        engine = self.make_engine()
        report = engine.simulate_arrivals(
            self.workload(400), arrival_rate_tps=2e6,
            interval_s=1e-4, strategy="kset",
        )
        assert report.executed == 400
        assert report.avg_response_s > 0
        assert report.max_response_s >= report.avg_response_s
        assert sum(report.bulk_sizes) == 400

    def test_larger_interval_larger_response_and_bulks(self):
        def run(interval):
            engine = self.make_engine()
            return engine.simulate_arrivals(
                self.workload(600), arrival_rate_tps=4e6,
                interval_s=interval, strategy="kset",
            )

        small = run(2e-5)
        large = run(8e-4)
        assert large.avg_response_s > small.avg_response_s
        assert max(large.bulk_sizes) > max(small.bulk_sizes)

    def test_throughput_saturates_with_interval(self):
        """The paper's knee: throughput rises sharply, then flattens."""
        def tput(interval):
            engine = self.make_engine()
            return engine.simulate_arrivals(
                self.workload(800), arrival_rate_tps=4e6,
                interval_s=interval, strategy="kset",
            ).throughput_tps

        t_small, t_mid, t_large = (
            tput(1e-5), tput(2e-4), tput(1e-3)
        )
        assert t_mid > t_small
        gain_late = (t_large - t_mid) / t_mid
        gain_early = (t_mid - t_small) / t_small
        assert gain_early > gain_late

    def test_bad_parameters_rejected(self):
        engine = self.make_engine()
        with pytest.raises(ConfigError):
            engine.simulate_arrivals(self.workload(10), 0, 1e-3)
        with pytest.raises(ConfigError):
            engine.simulate_arrivals(self.workload(10), 1e6, 0)

    @pytest.mark.parametrize(
        "rate, interval",
        [
            (float("nan"), 1e-3),
            (1e6, float("nan")),
            (1e6, float("inf")),
            (float("-inf"), 1e-3),
        ],
        ids=["rate-nan", "interval-nan", "interval-inf", "rate-neg-inf"],
    )
    def test_nan_and_infinite_interval_rejected(self, rate, interval):
        """Regression: a NaN rate admitted no arrival and spun forever; a
        NaN or infinite interval reported a NaN elapsed time."""
        engine = self.make_engine()
        with deadline(), pytest.raises(ConfigError):
            engine.simulate_arrivals(self.workload(10), rate, interval)

    def test_infinite_rate_accepted(self):
        report = self.make_engine().simulate_arrivals(
            self.workload(10), float("inf"), 1e-3, strategy="kset"
        )
        assert report.bulk_sizes == [10]
        assert report.elapsed_s > 0

    def test_empty_transaction_list(self):
        engine = self.make_engine()
        report = engine.simulate_arrivals(
            [], arrival_rate_tps=1e6, interval_s=1e-4, strategy="kset",
        )
        assert report.executed == 0
        assert report.bulk_sizes == []
        assert report.avg_response_s == 0.0
        assert report.max_response_s == 0.0
        assert report.throughput_tps == 0.0

    def test_everything_arrives_within_first_interval(self):
        """A rate fast enough that the run is one single bulk."""
        engine = self.make_engine()
        report = engine.simulate_arrivals(
            self.workload(50), arrival_rate_tps=1e9,
            interval_s=1e-3, strategy="kset",
        )
        assert report.bulk_sizes == [50]
        assert report.executed == 50
        # Everyone waited at least until the first bulk boundary.
        assert report.avg_response_s >= report.interval_s - 50 / 1e9

    def test_slow_arrivals_skip_empty_boundaries(self):
        """A rate slow enough that some boundaries see no arrivals:
        the continue path must skip them without recording a bulk."""
        engine = self.make_engine()
        # One transaction every 10 intervals: most boundaries are empty.
        report = engine.simulate_arrivals(
            self.workload(5), arrival_rate_tps=1e3,
            interval_s=1e-4, strategy="kset",
        )
        assert report.executed == 5
        assert all(size > 0 for size in report.bulk_sizes)
        assert sum(report.bulk_sizes) == 5
        # Empty boundaries produced no bulks: far fewer bulks than the
        # elapsed span contains interval boundaries.
        assert len(report.bulk_sizes) <= 5

    def test_deferred_transactions_run_in_a_later_bulk(self):
        """Regression: streaming K-SET's deferred transactions were
        counted as executed but never requeued, so they were lost."""
        db = smallbank.build_database(scale_factor=1)
        specs = smallbank.generate_transactions(db, 400, seed=5, theta=1.2)
        engine = GPUTx(db, procedures=smallbank.PROCEDURES)
        report = engine.simulate_arrivals(
            specs, 1e6, 1e-4, strategy="kset", max_rounds=1
        )
        assert report.executed == len(engine.results) == len(specs)
        assert len(engine.pool) == 0
        # Deferral happened: a deferred transaction rode a second bulk.
        assert sum(report.bulk_sizes) > len(specs)
        baseline = smallbank.build_database(scale_factor=1)
        pool = TransactionPool()
        CpuEngine(baseline, procedures=smallbank.PROCEDURES, num_cores=1).execute(
            [pool.submit(name, params) for name, params in specs]
        )
        assert engine.db.logical_state() == baseline.logical_state()

    def test_auto_strategy_runs(self):
        engine = self.make_engine()
        report = engine.simulate_arrivals(
            self.workload(200), arrival_rate_tps=2e6, interval_s=1e-4,
            strategy="auto",
        )
        assert report.executed == len(engine.results) == 200
        assert sum(report.bulk_sizes) == 200


class TestSubmitMany:
    def test_pairs_and_transactions(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        assert engine.submit_many([("deposit", (0, 5)), ("audit", (1,))]) == 2
        assert len(engine.pool) == 2

    def test_triples_carry_submit_time(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        engine.submit_many(
            [("deposit", (0, 5), 0.5), ("audit", (1,), 1.25)]
        )
        times = [txn.submit_time for txn in engine.pool]
        assert times == [0.5, 1.25]

    def test_mixed_arities(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        engine.submit_many([("deposit", (0, 5)), ("deposit", (1, 2), 2.0)])
        times = [txn.submit_time for txn in engine.pool]
        assert times == [0.0, 2.0]


class TestAutoStrategyOptions:
    """Option filtering under strategy='auto' (Algorithm 1)."""

    @staticmethod
    def make_engine():
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        for i in range(8):
            engine.submit("deposit", (i, 1))
        return engine

    def test_inapplicable_option_warns(self):
        engine = self.make_engine()
        # Tiny bulk: Algorithm 1 never picks adhoc, so an adhoc-only
        # option must be dropped with a warning naming it.
        with pytest.warns(UserWarning, match="per_task_launch_overhead"):
            result = engine.run_bulk(
                strategy="auto", per_task_launch_overhead=True
            )
        assert result.committed == 8

    def test_unknown_option_raises_and_preserves_pool(self):
        engine = self.make_engine()
        with pytest.raises(ConfigError, match="partion_size"):
            engine.run_bulk(strategy="auto", partion_size=64)  # typo
        # Options are validated before the pool is drained: the typo
        # costs an error, not the workload.
        assert len(engine.pool) == 8
        result = engine.run_bulk(strategy="auto", partition_size=64)
        assert len(result.results) == 8

    def test_explicit_strategy_rejects_foreign_option(self):
        engine = self.make_engine()
        with pytest.raises(ConfigError, match="does not accept"):
            engine.run_bulk(strategy="part", grouping_passes=2)
        assert len(engine.pool) == 8
        with pytest.raises(ConfigError, match="partion_size"):
            engine.run_bulk(strategy="part", partion_size=64)  # typo
        assert len(engine.pool) == 8
        result = engine.run_bulk(strategy="part", partition_size=64)
        assert len(result.results) == 8

    @pytest.mark.parametrize(
        "strategy, option",
        [
            ("part", {"partition_size": 0}),
            ("tpl", {"grouping_passes": -1}),
            ("kset", {"max_rounds": 0}),
            ("auto", {"max_rounds": 0}),
            ("kset", {"max_rounds": True}),
            ("tpl", {"grouping_passes": True}),
            ("part", {"partition_size": True}),
        ],
    )
    def test_out_of_range_option_value_preserves_pool(self, strategy, option):
        """Values are checked before the pool is drained: max_rounds=0
        would execute nothing (a drain loop would spin forever) and
        partition_size=0 used to die after the bulk was taken. A bool
        is no count: ``True`` used to pass as 1."""
        engine = self.make_engine()
        with pytest.raises(ConfigError, match=next(iter(option))):
            engine.run_bulk(strategy=strategy, **option)
        assert len(engine.pool) == 8

    def test_numpy_integer_option_is_an_int(self):
        """``max_rounds=np.int64(1)`` used to be rejected as "must be an
        int"; any integral value is accepted and reaches the executor as
        a plain ``int``."""
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        engine.submit_many([("deposit", (0, 1))] * 3)  # one chain
        executor = engine.make_executor("kset", max_rounds=np.int64(2))
        assert type(executor.max_rounds) is int and executor.max_rounds == 2
        result = engine.run_bulk(strategy="kset", max_rounds=np.int64(1))
        assert result.committed == 1 and len(engine.pool) == 2

    @pytest.mark.parametrize(
        "strategy, option",
        [
            ("part", {"partition_size": 0}),
            ("adhoc", {"per_task_launch_overhead": "yes"}),
        ],
    )
    def test_bad_option_is_a_config_error_on_every_path(
        self, strategy, option
    ):
        """make_executor used to let partition_size=0 reach
        PartExecutor's bare ValueError, and a truthy string switched
        the ad-hoc flag on; both are ConfigErrors, before the pool is
        drained, whichever way the executor is reached."""
        engine = self.make_engine()
        name = next(iter(option))
        with pytest.raises(ConfigError, match=name):
            engine.make_executor(strategy, **option)
        with pytest.raises(ConfigError, match=name):
            engine.run_bulk(strategy=strategy, **option)
        with pytest.raises(ConfigError, match=name):
            engine.run_bulk(strategy="auto", **option)
        assert len(engine.pool) == 8

    @pytest.mark.parametrize("block_size", [0, -32, 16, 100])
    def test_bad_block_size_never_reaches_a_bulk(self, block_size):
        """block_size=0 used to construct, then run_bulk drained the
        pool and died in warp_layout (-32: a misleading
        DeadlockError). No engine can exist to lose a bulk:
        construction refuses, and leaves the caller's database alone
        (a cluster takes no block size: its shards run the default)."""
        db = build_bank_db(8)
        before = db.physical_state()
        with pytest.raises(ConfigError, match="block size"):
            GPUTx(db, procedures=BANK_PROCEDURES, block_size=block_size)
        with pytest.raises(TypeError, match="block_size"):
            ClusterTx(
                db, procedures=BANK_PROCEDURES, n_shards=2,
                block_size=block_size,
            )
        assert db.physical_state() == before

    def test_unknown_strategy_preserves_pool(self):
        engine = self.make_engine()
        with pytest.raises(ConfigError, match="unknown strategy"):
            engine.run_bulk(strategy="warp-drive")
        assert len(engine.pool) == 8

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            (("tpcb_profile", (1, 2)), ProcedureError,
             r"transaction 1 \('tpcb_profile'\).*IndexError"),
            (("tpcb_profile", (1, 2, "x", 1.0)), ProcedureError,
             r"transaction 1 \('tpcb_profile'\).*ValueError"),
            (("tpcb_profil", (1, 2, 0, 1.0)), RegistrationError,
             "unknown transaction type 'tpcb_profil'"),
        ],
        ids=["short-params", "bad-type", "unregistered"],
    )
    def test_unresolvable_transaction_preserves_pool(self, bad, error, match):
        """A transaction its type cannot resolve used to cost the whole
        bulk (and, for a short tuple, a bare IndexError out of the
        partition function): resolution fails before anything runs,
        names the transaction, and the batch goes back as it came."""
        db = tpcb.build_database(2, accounts_per_branch=4)
        before = db.physical_state()
        engine = GPUTx(db, procedures=tpcb.PROCEDURES)
        engine.submit_many(
            [("tpcb_profile", (0, 0, 0, 5.0)), bad,
             ("tpcb_profile", (5, 10, 1, 2.0))]
        )
        with pytest.raises(error, match=match):
            engine.run_bulk()
        assert [t.txn_id for t in engine.pool] == [0, 1, 2]
        assert len(engine.results) == 0
        assert db.physical_state() == before
        # Withdraw the offender: the rest of the batch runs as usual.
        engine.pool.take_matching([1])
        assert engine.run_bulk().committed == 2

    def test_applicable_option_passes_through_silently(self):
        # This bulk is small and fully partitioned, so Algorithm 1
        # picks PART; PART's own option must pass through untouched.
        engine = self.make_engine()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = engine.run_bulk(strategy="auto", partition_size=4)
        assert result.strategy == "part"
        assert len(result.results) == 8
