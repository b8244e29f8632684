"""Definition 1 equivalence on the public benchmarks (TM1/TPC-B/TPC-C).

Each workload runs through every timestamp-preserving strategy and the
CPU engine; the resulting logical database state must equal the serial
oracle's. Sizes are kept small -- the property suite and benches cover
scale.
"""

import pytest

from repro import CpuEngine, GPUTx
from repro.core.txn import TransactionPool
from repro.workloads import tm1, tpcb, tpcc

STRATEGIES = ["kset", "tpl", "part", "adhoc"]


def oracle_state(build, specs, procedures):
    db = build()
    cpu = CpuEngine(db, procedures=procedures, num_cores=1)
    pool = TransactionPool()
    cpu.execute([pool.submit(n, p) for n, p in specs])
    return db.logical_state()


class TestTpcb:
    @staticmethod
    def build():
        return tpcb.build_database(scale_factor=4, accounts_per_branch=25)

    @pytest.fixture(scope="class")
    def specs(self):
        return tpcb.generate_transactions(self.build(), 150, seed=11)

    @pytest.fixture(scope="class")
    def oracle(self, specs):
        return oracle_state(self.build, specs, tpcb.PROCEDURES)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_state_matches_oracle(self, specs, oracle, strategy):
        db = self.build()
        engine = GPUTx(db, procedures=tpcb.PROCEDURES)
        engine.submit_many(specs)
        result = engine.run_bulk(strategy=strategy)
        assert db.logical_state() == oracle
        assert result.committed == len(specs)

    def test_history_rows_inserted(self, specs):
        db = self.build()
        engine = GPUTx(db, procedures=tpcb.PROCEDURES)
        engine.submit_many(specs)
        engine.run_bulk(strategy="kset")
        assert db.table("history").live_row_count == len(specs)

    def test_balance_conservation(self, specs):
        """Branch balance equals the sum of its transactions' deltas."""
        db = self.build()
        engine = GPUTx(db, procedures=tpcb.PROCEDURES)
        engine.submit_many(specs)
        engine.run_bulk(strategy="tpl")
        branch = db.table("branch")
        expected = [0.0] * branch.n_rows
        for _name, (_a, _t, b_id, delta) in specs:
            expected[b_id] += delta
        for b in range(branch.n_rows):
            assert branch.read("b_balance", b) == pytest.approx(expected[b])


class TestTm1:
    @staticmethod
    def build():
        return tm1.build_database(1, subscribers_per_sf=150)

    @pytest.fixture(scope="class")
    def specs(self):
        return tm1.generate_transactions(self.build(), 200, seed=13)

    @pytest.fixture(scope="class")
    def oracle(self, specs):
        return oracle_state(self.build, specs, tm1.PROCEDURES)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_state_matches_oracle(self, specs, oracle, strategy):
        db = self.build()
        engine = GPUTx(db, procedures=tm1.PROCEDURES)
        engine.submit_many(specs)
        engine.run_bulk(strategy=strategy)
        assert db.logical_state() == oracle

    def test_abort_rate_is_high(self, specs):
        """TM1 'has a higher abortion ratio' (Appendix E)."""
        db = self.build()
        engine = GPUTx(db, procedures=tm1.PROCEDURES)
        engine.submit_many(specs)
        result = engine.run_bulk(strategy="kset")
        assert result.aborted / len(result.results) > 0.10

    def test_call_forwarding_inserts_and_deletes_applied(self, specs, oracle):
        db = self.build()
        engine = GPUTx(db, procedures=tm1.PROCEDURES)
        engine.submit_many(specs)
        engine.run_bulk(strategy="part")
        oracle_cf = oracle["call_forwarding"]
        assert db.logical_state()["call_forwarding"] == oracle_cf


class TestTpcc:
    @staticmethod
    def build():
        return tpcc.build_database(
            2, customers_per_district=20, n_items=80,
            init_orders_per_district=9,
        )

    @pytest.fixture(scope="class")
    def specs(self):
        return tpcc.generate_transactions(self.build(), 100, seed=17)

    @pytest.fixture(scope="class")
    def oracle(self, specs):
        return oracle_state(self.build, specs, tpcc.PROCEDURES)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_state_matches_oracle(self, specs, oracle, strategy):
        db = self.build()
        engine = GPUTx(db, procedures=tpcc.PROCEDURES)
        engine.submit_many(specs)
        engine.run_bulk(strategy=strategy)
        assert db.logical_state() == oracle

    def test_remote_transactions_force_tpl_fallback(self):
        db = self.build()
        specs = tpcc.generate_transactions(
            db, 60, seed=17, remote_payment_prob=1.0
        )
        engine = GPUTx(db, procedures=tpcc.PROCEDURES)
        engine.submit_many(specs)
        result = engine.run_bulk(strategy="part")
        assert result.strategy == "part(tpl-fallback)"

    def test_remote_state_still_matches_oracle(self):
        specs = tpcc.generate_transactions(
            self.build(), 60, seed=19,
            remote_payment_prob=0.3, remote_item_prob=0.1,
        )
        oracle = oracle_state(self.build, specs, tpcc.PROCEDURES)
        for strategy in ("kset", "tpl", "part"):
            db = self.build()
            engine = GPUTx(db, procedures=tpcc.PROCEDURES)
            engine.submit_many(specs)
            engine.run_bulk(strategy=strategy)
            assert db.logical_state() == oracle

    def test_new_orders_advance_district_sequence(self, specs):
        db = self.build()
        before = [
            db.table("district").read("d_next_o_id", r)
            for r in range(db.table("district").n_rows)
        ]
        engine = GPUTx(db, procedures=tpcc.PROCEDURES)
        engine.submit_many(specs)
        engine.run_bulk(strategy="kset")
        after = [
            db.table("district").read("d_next_o_id", r)
            for r in range(db.table("district").n_rows)
        ]
        committed_orders = sum(
            1 for r in engine.results
            if r.committed and r.type_name == "tpcc_new_order"
        )
        assert sum(after) - sum(before) == committed_orders


class TestRowLayoutEquivalence:
    """The row store is functionally identical, only slower/larger."""

    def test_tm1_row_layout_matches_column_layout(self):
        specs = tm1.generate_transactions(
            tm1.build_database(1, subscribers_per_sf=80), 100, seed=23
        )

        def run(layout):
            db = tm1.build_database(1, subscribers_per_sf=80, layout=layout)
            engine = GPUTx(db, procedures=tm1.PROCEDURES)
            engine.submit_many(specs)
            result = engine.run_bulk(strategy="kset")
            return db.logical_state(), result

        col_state, col_result = run("column")
        row_state, row_result = run("row")
        assert col_state == row_state
        # Column store moves less memory (coalescing + projection).
        col_tx = sum(col_result.kernel_reports[0].stats.mem_transactions)
        row_tx = sum(row_result.kernel_reports[0].stats.mem_transactions)
        assert col_tx <= row_tx
