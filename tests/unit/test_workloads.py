"""Unit tests for the four benchmark workload definitions."""

import warnings

import numpy as np
import pytest

from repro.core.procedure import ProcedureRegistry
from repro.core.tx_logging import validate_two_phase
from repro.workloads import base, micro, smallbank, tm1, tpcb, tpcc


class TestBaseHelpers:
    def test_skewed_first_item_uniform_when_alpha_tiny(self):
        rng = base.make_rng(0)
        items = base.skewed_first_item(rng, 100, 0.0, 10_000)
        assert (items == 0).mean() < 0.05

    def test_skewed_first_item_hot_when_alpha_large(self):
        rng = base.make_rng(0)
        items = base.skewed_first_item(rng, 100, 0.9, 10_000)
        share = (items == 0).mean()
        assert 0.85 < share < 0.95

    def test_skew_bounds_checked(self):
        rng = base.make_rng(0)
        with pytest.raises(ValueError):
            base.skewed_first_item(rng, 100, 1.5, 10)
        with pytest.raises(ValueError):
            base.skewed_first_item(rng, 0, 0.5, 10)

    def test_nurand_in_range(self):
        rng = base.make_rng(0)
        values = [base.nurand(rng, 255, 0, 999) for _ in range(1000)]
        assert all(0 <= v <= 999 for v in values)

    def test_tpcc_last_name(self):
        # Spec syllables: 3 -> PRI, 7 -> CALLY, 1 -> OUGHT.
        assert base.tpcc_last_name(0) == "BARBARBAR"
        assert base.tpcc_last_name(371) == "PRICALLYOUGHT"

    def test_padded_number_string(self):
        assert base.padded_number_string(42, 8) == "00000042"

    def test_choose_mix_respects_weights(self):
        rng = base.make_rng(1)
        picks = base.choose_mix(rng, [("a", 90.0), ("b", 10.0)], 5000)
        share_a = picks.count("a") / len(picks)
        assert 0.85 < share_a < 0.95


class TestMixChecks:
    """``base.choose_mix`` owns the mix check, a workload uses an
    explicit mix as given, and a builder refuses an empty population."""

    @pytest.mark.parametrize(
        "mix",
        [
            [],
            [("a", 0.0), ("b", 0.0)],
            [("a", float("nan")), ("b", 1.0)],
            [("a", float("inf")), ("b", 1.0)],
            [("a", -1.0), ("b", 2.0)],
            [("a", 1e308), ("b", 1e308)],
        ],
        ids=["empty", "all-zero", "nan", "inf", "negative", "overflow"],
    )
    def test_choose_mix_rejects_bad_mixes(self, mix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mix"):
                base.choose_mix(base.make_rng(0), mix, 10)

    def test_choose_mix_allows_a_zero_weight(self):
        picks = base.choose_mix(base.make_rng(0), [("a", 0.0), ("b", 3.0)], 50)
        assert set(picks) == {"b"}

    @pytest.mark.parametrize(
        "generate",
        [
            lambda mix: tm1.generate_transactions(
                tm1.build_database(1, subscribers_per_sf=8), 5, mix=mix
            ),
            lambda mix: smallbank.generate_transactions(
                smallbank.build_database(1, accounts_per_sf=8), 5, mix=mix
            ),
            lambda mix: tpcc.generate_transactions(
                tpcc.build_database(
                    1, customers_per_district=4, n_items=16,
                    init_orders_per_district=3,
                ),
                5,
                mix=mix,
            ),
        ],
        ids=["tm1", "smallbank", "tpcc"],
    )
    def test_an_explicit_empty_mix_is_not_the_default(self, generate):
        with pytest.raises(ValueError, match="mix is empty"):
            generate([])

    def test_builders_reject_an_empty_population(self):
        with pytest.raises(ValueError, match="subscribers_per_sf"):
            tm1.build_database(1, subscribers_per_sf=0)
        with pytest.raises(ValueError, match="accounts_per_sf"):
            smallbank.build_database(1, accounts_per_sf=0)


class TestMicro:
    def test_database_shape(self):
        db = micro.build_database(1000)
        assert db.table("tuples").n_rows == 1000

    def test_procedures_have_distinct_switch_cases(self):
        procs = micro.build_procedures(n_branches=4, x=1)
        registry = ProcedureRegistry()
        registry.register_many(procs)
        assert registry.type_names == [f"micro_{i}" for i in range(4)]

    def test_transaction_round_robin_types(self):
        specs = micro.generate_transactions(
            8, n_tuples=100, n_branches=4, seed=0
        )
        names = [name for name, _ in specs]
        assert names == [f"micro_{i % 4}" for i in range(8)]

    def test_compute_amount_scales_with_x(self):
        lo = micro.build_procedures(1, x=1)[0]
        hi = micro.build_procedures(1, x=16)[0]

        def sfu_amount(txn_type):
            stream = txn_type.body(0)
            stream.send(None)            # Read
            op = stream.send(1.0)        # SfuCompute
            return op.amount

        assert sfu_amount(lo) == 100
        assert sfu_amount(hi) == 1600

    def test_access_and_partition_are_row(self):
        proc = micro.build_procedures(1, x=1)[0]
        assert proc.accesses((7,))[0].item == 7
        assert proc.partition_of((7,)) == 7

    def test_invalid_branch_count(self):
        with pytest.raises(ValueError):
            micro.build_procedures(0)


class TestTpcb:
    def test_database_ratios(self):
        db = tpcb.build_database(scale_factor=3, accounts_per_branch=10)
        assert db.table("branch").n_rows == 3
        assert db.table("teller").n_rows == 30
        assert db.table("account").n_rows == 30

    def test_single_transaction_type(self):
        assert [t.name for t in tpcb.PROCEDURES] == ["tpcb_profile"]

    def test_profile_is_two_phase(self):
        stream = tpcb.PROCEDURES[0].body(0, 0, 0, 10.0)
        assert validate_two_phase(stream, feed=0)

    def test_item_is_branch(self):
        accesses = tpcb.PROCEDURES[0].accesses((5, 2, 1, 10.0))
        assert [a.item for a in accesses] == [1]
        assert accesses[0].write

    def test_generated_params_are_branch_local(self):
        db = tpcb.build_database(scale_factor=4, accounts_per_branch=10)
        for _name, (a_id, t_id, b_id, _d) in tpcb.generate_transactions(
            db, 200, seed=0
        ):
            assert t_id // tpcb.TELLERS_PER_BRANCH == b_id
            assert a_id // 10 == b_id

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            tpcb.build_database(0)


class TestTm1:
    @pytest.fixture(scope="class")
    def db(self):
        return tm1.build_database(1, subscribers_per_sf=100)

    def test_tables_present(self, db):
        for table in ("subscriber", "access_info", "special_facility",
                      "call_forwarding"):
            assert db.table(table).n_rows > 0

    def test_subscriber_has_full_ndbb_columns(self, db):
        names = db.table("subscriber").schema.column_names
        assert "sub_nbr" in names
        assert sum(1 for n in names if n.startswith("bit_")) == 10
        assert sum(1 for n in names if n.startswith("hex_")) == 10
        assert sum(1 for n in names if n.startswith("byte2_")) == 10

    def test_static_map_resolves_sub_nbr(self, db):
        sub_nbr = base.padded_number_string(7, tm1.SUB_NBR_WIDTH)
        assert db.static_maps["sub_nbr_map"][sub_nbr] == 7

    def test_seven_logical_types_plus_lookup(self):
        names = {t.name for t in tm1.PROCEDURES}
        assert len(names) == 8  # 7 NDBB transactions + the split lookup
        assert "tm1_lookup_sub_nbr" in names

    def test_all_types_two_phase(self):
        assert all(t.two_phase for t in tm1.PROCEDURES)

    def test_splits_emitted_for_string_types(self, db):
        specs = tm1.generate_transactions(db, 400, seed=1)
        names = [n for n, _ in specs]
        lookups = names.count("tm1_lookup_sub_nbr")
        split_targets = sum(
            names.count(n)
            for n in ("tm1_update_location", "tm1_insert_call_forwarding",
                      "tm1_delete_call_forwarding")
        )
        assert lookups == split_targets > 0

    def test_mix_roughly_standard(self, db):
        specs = tm1.generate_transactions(db, 4000, seed=2)
        names = [n for n, _ in specs]
        gsd = names.count("tm1_get_subscriber_data") / 4000
        assert 0.30 < gsd < 0.40


class TestTpcc:
    @pytest.fixture(scope="class")
    def db(self):
        return tpcc.build_database(
            2, customers_per_district=10, n_items=50,
            init_orders_per_district=6,
        )

    def test_nine_tables(self, db):
        for table in ("warehouse", "district", "customer", "history",
                      "new_order", "orders", "order_line", "item", "stock"):
            assert table in db.tables

    def test_stock_cardinality(self, db):
        assert db.table("stock").n_rows == 2 * 50

    def test_undelivered_orders_have_new_order_rows(self, db):
        assert db.table("new_order").n_rows == 2 * 10 * (6 - 4)

    def test_five_types_plus_lookup(self):
        names = {t.name for t in tpcc.PROCEDURES}
        assert names == {
            "tpcc_new_order", "tpcc_payment", "tpcc_customer_by_name",
            "tpcc_order_status", "tpcc_delivery", "tpcc_stock_level",
        }

    def test_new_order_access_includes_stock_items(self):
        proc = next(t for t in tpcc.PROCEDURES if t.name == "tpcc_new_order")
        params = (1, 3, 0, (5, 6), (1, 1), (2, 2))
        items = {a.item for a in proc.accesses(params)}
        assert tpcc._wd_item(1, 3) in items
        assert tpcc._stock_item(1, 5) in items
        assert tpcc._stock_item(1, 6) in items

    def test_disjoint_item_new_orders_do_not_conflict(self):
        """Row-level stock conflicts: different item sets, same
        warehouse, different districts -> conflict-free."""
        from repro.core.oparray import OpArray
        from repro.core.tdg import TDependencyGraph

        proc = next(t for t in tpcc.PROCEDURES if t.name == "tpcc_new_order")
        a = proc.accesses((1, 1, 0, (5,), (1,), (2,)))
        b = proc.accesses((1, 2, 0, (6,), (1,), (2,)))
        graph = TDependencyGraph.build(
            OpArray.from_accesses([(0, a), (1, b)])
        )
        assert not graph.conflicting(0, 1)
        # Shared item -> conflict.
        c = proc.accesses((1, 2, 0, (5,), (1,), (2,)))
        graph2 = TDependencyGraph.build(
            OpArray.from_accesses([(0, a), (1, c)])
        )
        assert graph2.conflicting(0, 1)

    def test_local_new_order_is_single_partition(self):
        proc = next(t for t in tpcc.PROCEDURES if t.name == "tpcc_new_order")
        assert proc.partition_of((1, 3, 0, (5,), (1,), (2,))) == 1
        assert proc.partition_of((1, 3, 0, (5,), (0,), (2,))) is None

    def test_remote_payment_is_cross_partition(self):
        proc = next(t for t in tpcc.PROCEDURES if t.name == "tpcc_payment")
        assert proc.partition_of((0, 1, 0, 1, 5, 10.0)) == 0
        assert proc.partition_of((0, 1, 1, 1, 5, 10.0)) is None

    def test_generation_defaults_single_partition(self, db):
        registry = ProcedureRegistry()
        registry.register_many(tpcc.PROCEDURES)
        specs = tpcc.generate_transactions(db, 200, seed=4)
        for name, params in specs:
            assert registry.get(name).partition_of(params) is not None

    def test_generation_remote_produces_cross_partition(self, db):
        registry = ProcedureRegistry()
        registry.register_many(tpcc.PROCEDURES)
        specs = tpcc.generate_transactions(
            db, 400, seed=4, remote_item_prob=0.5, remote_payment_prob=0.5
        )
        crosses = sum(
            1 for name, params in specs
            if registry.get(name).partition_of(params) is None
        )
        assert crosses > 0


class TestZipfian:
    def test_theta_zero_is_uniform(self):
        rng = base.make_rng(0)
        items = base.zipfian_items(rng, 100, 0.0, 10_000)
        assert (items == 0).mean() < 0.05

    def test_skew_concentrates_on_low_ranks(self):
        rng = base.make_rng(0)
        items = base.zipfian_items(rng, 100, 1.2, 10_000)
        hot = (items == 0).mean()
        assert hot > 0.15
        # Popularity falls off by rank.
        counts = np.bincount(items, minlength=100)
        assert counts[0] > counts[10] > counts[90]

    def test_bounds_checked(self):
        rng = base.make_rng(0)
        with pytest.raises(ValueError):
            base.zipfian_items(rng, 100, -0.1, 10)
        with pytest.raises(ValueError):
            base.zipfian_items(rng, 0, 0.5, 10)


class TestSmallBank:
    @pytest.fixture
    def db(self):
        return smallbank.build_database(1, accounts_per_sf=32, seed=2)

    def test_schema_and_population(self, db):
        n = db.table(smallbank.ACCOUNT).n_rows
        assert n == 32
        assert db.table(smallbank.SAVINGS).n_rows == n
        assert db.table(smallbank.CHECKING).n_rows == n
        assert db.index("sb_savings_pk").probe(5) >= 0
        assert db.index("sb_checking_pk").probe(31) >= 0

    def test_all_types_two_phase_with_vector_forms(self):
        args = {
            "smallbank_balance": (1,),
            "smallbank_deposit_checking": (1, 10.0),
            "smallbank_transact_savings": (1, 10.0),
            "smallbank_amalgamate": (1, 2),
            "smallbank_write_check": (1, 10.0),
            "smallbank_send_payment": (1, 2, 10.0),
        }
        for proc in smallbank.PROCEDURES:
            assert proc.two_phase
            assert validate_two_phase(proc.body(*args[proc.name]), feed=0)
            assert proc.vector_body is not None, proc.name

    def test_generator_deterministic(self, db):
        a = smallbank.generate_transactions(db, 300, seed=9, theta=0.9)
        b = smallbank.generate_transactions(db, 300, seed=9, theta=0.9)
        assert a == b
        c = smallbank.generate_transactions(db, 300, seed=10, theta=0.9)
        assert a != c

    def test_generator_covers_all_types(self, db):
        specs = smallbank.generate_transactions(db, 600, seed=3)
        names = {name for name, _params in specs}
        assert names == {t.name for t in smallbank.PROCEDURES}

    def test_skew_deepens_conflicts(self, db):
        registry = ProcedureRegistry()
        registry.register_many(smallbank.PROCEDURES)

        def hottest_item_share(theta):
            specs = smallbank.generate_transactions(
                db, 2_000, seed=5, theta=theta
            )
            counts = {}
            for name, params in specs:
                for access in registry.get(name).accesses(params):
                    counts[access.item] = counts.get(access.item, 0) + 1
            return max(counts.values()) / sum(counts.values())

        assert hottest_item_share(1.2) > 3 * hottest_item_share(0.0)

    def test_pair_types_cross_partition(self):
        send = next(
            t for t in smallbank.PROCEDURES
            if t.name == "smallbank_send_payment"
        )
        assert send.partition_of((3, 3, 10.0)) == 3
        assert send.partition_of((3, 4, 10.0)) is None

    def test_definition1_matches_serial_oracle(self, db):
        """Every strategy lands on the serial-by-timestamp state."""
        from repro import GPUTx
        from repro.core.txn import TransactionPool
        from repro.cpu.engine import CpuEngine

        specs = smallbank.generate_transactions(db, 250, seed=7, theta=1.0)

        def serial_state():
            oracle_db = smallbank.build_database(
                1, accounts_per_sf=32, seed=2
            )
            cpu = CpuEngine(
                oracle_db, procedures=smallbank.PROCEDURES, num_cores=1
            )
            pool = TransactionPool()
            cpu.execute([pool.submit(n, p) for n, p in specs])
            return oracle_db.logical_state()

        expected = serial_state()
        for strategy in ("kset", "part", "tpl", "adhoc"):
            gpu_db = smallbank.build_database(1, accounts_per_sf=32, seed=2)
            engine = GPUTx(gpu_db, procedures=smallbank.PROCEDURES)
            engine.submit_many(specs)
            engine.run_bulk(strategy=strategy)
            assert gpu_db.logical_state() == expected, strategy
