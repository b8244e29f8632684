"""Property-based backend equivalence: interpreted vs. vectorized.

For random bulks over the whole workload suite -- micro, TM1, TPC-B,
TPC-C, and SmallBank, including multi-round K-SET graphs with
streaming deferrals, PART partition schedules, insert/delete-heavy
mixes, and TPC-C schedules where DELIVERY consumes orders a same-bulk
NEW_ORDER staged -- the two execution backends must agree on
*everything observable*: per-transaction outcomes (commit/abort,
reason, value), the deferral sets, the simulated clock, and the final
``Database.physical_state()`` (byte-identical stores, including
physical row order of batched inserts).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineOptions, GPUTx
from repro.core.txn import TransactionPool
from repro.cpu.engine import CpuEngine
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc

N_TUPLES = 48
TM1_SUBS = 40  # tiny subscriber pool -> plenty of conflicts per bulk
TPCB_BRANCHES = 4
TPCB_ACCOUNTS = 8
TPCC_WAREHOUSES = 2
TPCC_CUSTOMERS = 4
TPCC_ITEMS = 16
TPCC_INIT_ORDERS = 6  # only 2 undelivered/district: deliveries reach
                      # same-bulk staged orders quickly
SB_ACCOUNTS = 12


def _micro_specs():
    txn = st.tuples(
        st.integers(0, 3).map(lambda b: f"micro_{b}"),
        st.tuples(st.integers(0, N_TUPLES - 1)),
    )
    return st.lists(txn, min_size=1, max_size=60)


def _tm1_specs():
    s_id = st.integers(0, TM1_SUBS - 1)
    sf = st.integers(1, 4)
    start = st.sampled_from([0, 8, 16])
    get_sub = st.tuples(st.just("tm1_get_subscriber_data"), st.tuples(s_id))
    get_dest = st.tuples(
        st.just("tm1_get_new_destination"),
        st.tuples(s_id, sf, start, st.integers(1, 24)),
    )
    get_access = st.tuples(
        st.just("tm1_get_access_data"), st.tuples(s_id, st.integers(1, 4))
    )
    upd_sub = st.tuples(
        st.just("tm1_update_subscriber_data"),
        st.tuples(s_id, st.booleans(), sf, st.integers(0, 255)),
    )
    upd_loc = st.tuples(
        st.just("tm1_update_location"), st.tuples(s_id, st.integers(1, 1 << 20))
    )
    ins_cf = st.tuples(
        st.just("tm1_insert_call_forwarding"),
        st.tuples(s_id, sf, start, st.integers(1, 24), st.just("x" * 15)),
    )
    del_cf = st.tuples(
        st.just("tm1_delete_call_forwarding"), st.tuples(s_id, sf, start)
    )
    return st.lists(
        st.one_of(
            get_sub, get_dest, get_access, upd_sub, upd_loc, ins_cf, del_cf
        ),
        min_size=1,
        max_size=50,
    )


def _run(build_db, procedures, specs, backend, strategy, **options):
    db = build_db()
    engine = GPUTx(
        db,
        procedures=procedures,
        options=EngineOptions(backend=backend),
    )
    engine.submit_many(specs)
    bulks = [engine.run_bulk(strategy=strategy, **options)]
    # Drain deferrals (streaming K-SET requeues blocked work).
    while len(engine.pool):
        bulks.append(engine.run_bulk(strategy=strategy, **options))
    observable = [
        (
            [(r.txn_id, r.committed, r.abort_reason, r.value)
             for r in b.results],
            sorted(t.txn_id for t in b.deferred),
            b.seconds,
        )
        for b in bulks
    ]
    return db.physical_state(), observable


def _assert_equivalent(build_db, procedures, specs, strategy, **options):
    state_i, obs_i = _run(
        build_db, procedures, specs, "interpreted", strategy, **options
    )
    state_v, obs_v = _run(
        build_db, procedures, specs, "vectorized", strategy, **options
    )
    assert obs_i == obs_v
    assert state_i == state_v


class TestMicroEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(specs=_micro_specs(), max_rounds=st.sampled_from([None, 1, 2]))
    def test_kset_with_streaming_deferrals(self, specs, max_rounds):
        _assert_equivalent(
            lambda: micro.build_database(N_TUPLES),
            micro.build_procedures(4),
            specs,
            "kset",
            max_rounds=max_rounds,
        )

    @settings(max_examples=15, deadline=None)
    @given(specs=_micro_specs(), partition_size=st.sampled_from([1, 4]))
    def test_part(self, specs, partition_size):
        _assert_equivalent(
            lambda: micro.build_database(N_TUPLES),
            micro.build_procedures(4),
            specs,
            "part",
            partition_size=partition_size,
        )


def _tpcb_specs():
    # Tellers and accounts are derived from the branch, like the real
    # generator: TPC-B's conflict contract is root-relation locking on
    # the branch id, which only covers a branch's *own* subtree. An
    # out-of-range account exercises the abort path (it aborts before
    # any write, so it races with nothing).
    branch = st.integers(0, TPCB_BRANCHES - 1)
    delta = st.integers(-500, 500).map(float)
    txn = st.tuples(
        branch,
        st.integers(0, TPCB_ACCOUNTS - 1) | st.just(10_000),
        st.integers(0, tpcb.TELLERS_PER_BRANCH - 1),
        delta,
    ).map(
        lambda t: (
            "tpcb_profile",
            (
                t[0] * TPCB_ACCOUNTS + t[1] if t[1] < 10_000 else 10_000,
                t[0] * tpcb.TELLERS_PER_BRANCH + t[2],
                t[0],
                t[3],
            ),
        )
    )
    return st.lists(txn, min_size=1, max_size=50)


def _tpcc_specs():
    w = st.integers(0, TPCC_WAREHOUSES - 1)
    d = st.integers(1, tpcc.DISTRICTS)
    c = st.integers(0, TPCC_CUSTOMERS - 1)
    item = st.integers(0, TPCC_ITEMS - 1)
    # Each order line is (item id, supply warehouse, quantity); the
    # out-of-range item exercises the phase-1 abort, remote supply
    # warehouses exercise the remote-stock branch.
    line = st.tuples(
        st.one_of(item, st.just(TPCC_ITEMS + 99)), w, st.integers(1, 10)
    )
    new_order = st.tuples(
        st.just("tpcc_new_order"),
        st.tuples(w, d, c, st.lists(line, min_size=1, max_size=5)).map(
            lambda t: (
                t[0], t[1], t[2],
                tuple(x[0] for x in t[3]),
                tuple(x[1] for x in t[3]),
                tuple(x[2] for x in t[3]),
            )
        ),
    )
    payment = st.tuples(
        st.just("tpcc_payment"),
        st.tuples(w, d, w, d, c, st.integers(1, 5000).map(float)),
    )
    by_name = st.tuples(
        st.just("tpcc_customer_by_name"),
        st.tuples(w, d, st.integers(0, 999).map(tpcc.tpcc_last_name)),
    )
    order_status = st.tuples(st.just("tpcc_order_status"), st.tuples(w, d, c))
    delivery = st.tuples(
        st.just("tpcc_delivery"), st.tuples(w, d, st.integers(1, 10))
    )
    stock_level = st.tuples(
        st.just("tpcc_stock_level"), st.tuples(w, d, st.integers(10, 20))
    )
    return st.lists(
        st.one_of(
            new_order, payment, by_name, order_status, delivery, stock_level
        ),
        min_size=1,
        max_size=30,
    )


def _smallbank_specs():
    cust = st.one_of(st.integers(0, SB_ACCOUNTS - 1), st.just(4_000))
    amount = st.integers(-150, 150).map(float)
    pos_amount = st.integers(1, 120).map(float)
    balance = st.tuples(st.just("smallbank_balance"), st.tuples(cust))
    deposit = st.tuples(
        st.just("smallbank_deposit_checking"),
        st.tuples(cust, st.one_of(pos_amount, st.just(-5.0))),
    )
    transact = st.tuples(
        st.just("smallbank_transact_savings"), st.tuples(cust, amount)
    )
    amalgamate = st.tuples(
        st.just("smallbank_amalgamate"), st.tuples(cust, cust)
    )
    write_check = st.tuples(
        st.just("smallbank_write_check"), st.tuples(cust, pos_amount)
    )
    send = st.tuples(
        st.just("smallbank_send_payment"), st.tuples(cust, cust, pos_amount)
    )
    return st.lists(
        st.one_of(balance, deposit, transact, amalgamate, write_check, send),
        min_size=1,
        max_size=50,
    )


class TestTm1Equivalence:
    @settings(max_examples=20, deadline=None)
    @given(specs=_tm1_specs())
    def test_kset(self, specs):
        _assert_equivalent(
            lambda: tm1.build_database(1, subscribers_per_sf=TM1_SUBS, seed=3),
            tm1.PROCEDURES,
            specs,
            "kset",
        )

    @settings(max_examples=15, deadline=None)
    @given(specs=_tm1_specs(), partition_size=st.sampled_from([1, 8]))
    def test_part(self, specs, partition_size):
        _assert_equivalent(
            lambda: tm1.build_database(1, subscribers_per_sf=TM1_SUBS, seed=3),
            tm1.PROCEDURES,
            specs,
            "part",
            partition_size=partition_size,
        )

    @settings(max_examples=10, deadline=None)
    @given(specs=_tm1_specs())
    def test_streaming_kset_deferrals(self, specs):
        _assert_equivalent(
            lambda: tm1.build_database(1, subscribers_per_sf=TM1_SUBS, seed=3),
            tm1.PROCEDURES,
            specs,
            "kset",
            max_rounds=1,
        )


def _tpcb_db():
    return tpcb.build_database(
        TPCB_BRANCHES, accounts_per_branch=TPCB_ACCOUNTS
    )


class TestTpcbEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(specs=_tpcb_specs(), max_rounds=st.sampled_from([None, 1]))
    def test_kset_with_streaming_deferrals(self, specs, max_rounds):
        _assert_equivalent(
            _tpcb_db, tpcb.PROCEDURES, specs, "kset", max_rounds=max_rounds
        )

    @settings(max_examples=15, deadline=None)
    @given(specs=_tpcb_specs(), partition_size=st.sampled_from([1, 2]))
    def test_part(self, specs, partition_size):
        _assert_equivalent(
            _tpcb_db, tpcb.PROCEDURES, specs, "part",
            partition_size=partition_size,
        )


def _tpcc_db():
    return tpcc.build_database(
        TPCC_WAREHOUSES,
        customers_per_district=TPCC_CUSTOMERS,
        n_items=TPCC_ITEMS,
        init_orders_per_district=TPCC_INIT_ORDERS,
        seed=11,
    )


class TestTpccEquivalence:
    """The full five-type suite plus the name-lookup split, including
    PART schedules where DELIVERY deletes and writes orders that a
    same-bulk NEW_ORDER staged (the handle-write path)."""

    @settings(max_examples=15, deadline=None)
    @given(specs=_tpcc_specs(), max_rounds=st.sampled_from([None, 1]))
    def test_kset_with_streaming_deferrals(self, specs, max_rounds):
        _assert_equivalent(
            _tpcc_db, tpcc.PROCEDURES, specs, "kset", max_rounds=max_rounds
        )

    @settings(max_examples=10, deadline=None)
    @given(specs=_tpcc_specs(), partition_size=st.sampled_from([1, 8]))
    def test_part(self, specs, partition_size):
        _assert_equivalent(
            _tpcc_db, tpcc.PROCEDURES, specs, "part",
            partition_size=partition_size,
        )

    @settings(max_examples=8, deadline=None)
    @given(n_orders=st.integers(1, 4), n_deliveries=st.integers(1, 8))
    def test_delivery_consumes_same_bulk_orders(
        self, n_orders, n_deliveries
    ):
        """Deliveries outnumbering the initial undelivered orders must
        reach orders staged by same-bulk NEW_ORDERs."""
        specs = [
            ("tpcc_new_order", (0, 1, k % TPCC_CUSTOMERS, (1, 2), (0, 0),
                                (1, 1)))
            for k in range(n_orders)
        ]
        specs += [("tpcc_delivery", (0, 1, 7))] * n_deliveries
        specs.append(("tpcc_order_status", (0, 1, 0)))
        _assert_equivalent(_tpcc_db, tpcc.PROCEDURES, specs, "part")


def _smallbank_db():
    return smallbank.build_database(1, accounts_per_sf=SB_ACCOUNTS, seed=2)


class TestSmallBankEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(specs=_smallbank_specs(), max_rounds=st.sampled_from([None, 1]))
    def test_kset_with_streaming_deferrals(self, specs, max_rounds):
        _assert_equivalent(
            _smallbank_db, smallbank.PROCEDURES, specs, "kset",
            max_rounds=max_rounds,
        )

    @settings(max_examples=15, deadline=None)
    @given(specs=_smallbank_specs(), partition_size=st.sampled_from([1, 4]))
    def test_part(self, specs, partition_size):
        _assert_equivalent(
            _smallbank_db, smallbank.PROCEDURES, specs, "part",
            partition_size=partition_size,
        )


def _typed(value):
    """``value`` with its Python type, element-wise inside tuples."""
    if isinstance(value, tuple):
        return (tuple, tuple(_typed(v) for v in value))
    return (type(value), value)


def _micro_pair_case():
    specs = micro.generate_pair_transactions(
        48, n_tuples=N_TUPLES, shard_of=lambda key: key % 2,
        cross_shard_fraction=0.5, n_branches=2,
    )
    return (
        lambda: micro.build_database(N_TUPLES, with_index=True),
        micro.build_pair_procedures(2),
        specs + [("micro_pair_0", (3, 3))],
    )


def _tm1_case():
    db = tm1.build_database(1, subscribers_per_sf=200, seed=3)
    even_mix = [(name, 1.0) for name, _weight in tm1.DEFAULT_MIX]
    specs = tm1.generate_cluster_transactions(
        db, 700, shard_of=lambda key: key % 2, cross_shard_fraction=0.05,
        seed=5, mix=even_mix,
    )
    return db.clone, tm1.CLUSTER_PROCEDURES, specs


def _tpcc_case():
    db = tpcc.build_database(
        TPCC_WAREHOUSES, customers_per_district=8, n_items=32,
        init_orders_per_district=6, seed=11,
    )
    specs = tpcc.generate_transactions(db, 300, seed=4, remote_item_prob=0.2)
    # The generator's random last names rarely exist at this scale.
    specs += [
        ("tpcc_customer_by_name", (w, 1, tpcc.tpcc_last_name(c)))
        for w in range(TPCC_WAREHOUSES) for c in range(3)
    ]
    return db.clone, tpcc.PROCEDURES, specs


class TestResultTypes:
    """A vector kernel hands its result columns over with
    ``ndarray.tolist()``; what comes out must be what the generator
    body returns -- the same value *and* the same Python type,
    element-wise inside tuples (``True == 1`` and ``2 == 2.0`` pass a
    plain ``==``) -- for every type of all five workloads."""

    @pytest.mark.parametrize(
        "case",
        [
            lambda: (
                lambda: micro.build_database(N_TUPLES),
                micro.build_procedures(4),
                micro.generate_transactions(
                    40, n_tuples=N_TUPLES, n_branches=4
                ),
            ),
            _micro_pair_case,
            _tm1_case,
            lambda: (
                _tpcb_db,
                tpcb.PROCEDURES,
                tpcb.generate_transactions(_tpcb_db(), 40, seed=2),
            ),
            _tpcc_case,
            lambda: (
                _smallbank_db,
                smallbank.PROCEDURES,
                smallbank.generate_transactions(
                    _smallbank_db(), 300, seed=3
                ),
            ),
        ],
        ids=["micro", "micro-pair", "tm1", "tpcb", "tpcc", "smallbank"],
    )
    def test_vector_results_have_the_interpreters_types(self, case):
        build_db, procedures, specs = case()
        values = {}
        for backend in ("interpreted", "vectorized"):
            engine = GPUTx(
                build_db(),
                procedures=procedures,
                options=EngineOptions(backend=backend),
            )
            engine.submit_many(specs)
            results = engine.run_bulk(strategy="kset").results
            values[backend] = {
                r.txn_id: (r.type_name, _typed(r.value))
                for r in results
                if r.committed
            }
        assert values["vectorized"] == values["interpreted"]
        # The serial oracle runs the same bodies -- for the
        # single-source workloads a stream derived from the kernel, like
        # the interpreter's -- so its results are held to the same bar.
        pool = TransactionPool()
        pool.submit_specs(specs)
        oracle = CpuEngine(build_db(), procedures=procedures, num_cores=1)
        values["cpu"] = {
            r.txn_id: (r.type_name, _typed(r.value))
            for r in oracle.execute(pool.take()).results
            if r.committed
        }
        assert values["cpu"] == values["interpreted"]
        committed_types = {name for name, _ in values["vectorized"].values()}
        assert committed_types == {t.name for t in procedures}
