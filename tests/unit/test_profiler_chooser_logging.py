"""Unit tests for the bulk profiler, Algorithm 1, and logging utils."""

import pytest

from repro.core.chooser import (
    STRATEGY_KSET,
    STRATEGY_PART,
    STRATEGY_TPL,
    ChooserThresholds,
    choose_strategy,
)
from repro.core.procedure import ProcedureRegistry
from repro.core.profiler import BulkProfile, BulkProfiler
from repro.core.tx_logging import rollback, undo_bytes, validate_two_phase
from repro.errors import RecoveryError
from repro.gpu import ops
from repro.gpu.spec import C1060
from repro.storage.catalog import StoreAdapter

from tests.conftest import (
    BANK_PROCEDURES,
    build_bank_db,
    make_transactions,
)


class TestBulkProfiler:
    def make_profiler(self) -> BulkProfiler:
        registry = ProcedureRegistry()
        registry.register_many(BANK_PROCEDURES)
        return BulkProfiler(registry)

    def test_empty_bulk(self):
        profile = self.make_profiler().profile([])
        assert profile == BulkProfile(0, 0, 0, 0, 0.0)

    def test_disjoint_bulk_is_all_zero_set(self):
        txns = make_transactions(
            [("deposit", (i, 5)) for i in range(10)]
        )
        profile = self.make_profiler().profile(txns)
        assert profile.size == profile.w0 == 10
        assert profile.depth == 0

    def test_conflicting_chain_has_depth(self):
        txns = make_transactions([("deposit", (0, 5))] * 8)
        profile = self.make_profiler().profile(txns)
        assert profile.w0 == 1
        assert profile.depth == 7

    def test_cross_partition_counted(self):
        txns = make_transactions(
            [("deposit", (0, 5)), ("transfer", (1, 2, 5))]
        )
        profile = self.make_profiler().profile(txns)
        assert profile.cross_partition == 1


class TestChooser:
    def profile(self, w0=0, depth=0, cross=0, size=100):
        return BulkProfile(size, w0, depth, cross, 0.0)

    def test_wide_zero_set_picks_kset(self):
        t = ChooserThresholds(w0_bar=100, c_bar=0, d_bar=64)
        assert choose_strategy(self.profile(w0=100), t) == STRATEGY_KSET

    def test_no_cross_partition_picks_part(self):
        t = ChooserThresholds(w0_bar=100, c_bar=0, d_bar=64)
        assert choose_strategy(self.profile(w0=5, cross=0), t) == STRATEGY_PART

    def test_deep_graph_picks_part_despite_cross(self):
        t = ChooserThresholds(w0_bar=100, c_bar=0, d_bar=64)
        assert (
            choose_strategy(self.profile(w0=5, cross=10, depth=64), t)
            == STRATEGY_PART
        )

    def test_shallow_cross_partition_picks_tpl(self):
        t = ChooserThresholds(w0_bar=100, c_bar=0, d_bar=64)
        assert (
            choose_strategy(self.profile(w0=5, cross=10, depth=3), t)
            == STRATEGY_TPL
        )

    def test_default_w0_bar_scales_with_gpu(self):
        t = ChooserThresholds.for_spec(C1060, occupancy=4)
        assert t.w0_bar == 240 * 4


class TestTwoPhaseValidation:
    def test_two_phase_stream_accepted(self):
        def good():
            value = yield ops.Read("t", "v", 0)
            if value < 0:
                yield ops.Abort("bad")
            yield ops.Write("t", "v", 0, 1)

        assert validate_two_phase(good(), feed=5)

    def test_abort_after_write_rejected(self):
        def bad():
            yield ops.Write("t", "v", 0, 1)
            yield ops.Abort("too late")

        assert not validate_two_phase(bad())

    def test_abort_after_insert_rejected(self):
        def bad():
            yield ops.InsertRow("t", (1,))
            yield ops.Abort("too late")

        assert not validate_two_phase(bad())

    def test_bank_procedures_contracts_hold(self):
        # Every type marked two_phase really is; "risky" really is not.
        streams = {
            "deposit": ("deposit", (0, 5)),
            "transfer": ("transfer", (0, 1, 10_000)),  # abort path
            "audit": ("audit", (0,)),
        }
        by_name = {t.name: t for t in BANK_PROCEDURES}
        for name, (_, params) in streams.items():
            assert validate_two_phase(by_name[name].body(*params), feed=0)
        risky = by_name["risky"]
        assert not validate_two_phase(risky.body(0, 5, 1), feed=0)


class TestRollback:
    def test_rollback_reverses_writes_in_order(self):
        db = build_bank_db(4)
        adapter = StoreAdapter(db)
        adapter.write("accounts", "balance", 0, 50)
        adapter.write("accounts", "balance", 0, 75)
        entries = [("accounts", "balance", 0, 100),
                   ("accounts", "balance", 0, 50)]
        assert rollback(adapter, entries) == 2
        assert adapter.read("accounts", "balance", 0) == 100

    def test_rollback_cancels_inserts_and_deletes(self):
        db = build_bank_db(4)
        adapter = StoreAdapter(db)
        row = adapter.insert("accounts", (99, 0, 0))
        adapter.delete("accounts", 1)
        entries = [("__insert__", "accounts", row, None),
                   ("__delete__", "accounts", 1, None)]
        rollback(adapter, entries)
        assert db.table("accounts").is_deleted(row)
        assert not db.table("accounts").is_deleted(1)

    def test_malformed_entry_raises_recovery_error(self):
        adapter = StoreAdapter(build_bank_db(2))
        with pytest.raises(RecoveryError):
            rollback(adapter, [("accounts", "balance", 999, 1)])

    def test_undo_bytes(self):
        assert undo_bytes([("t", "c", 0, 1)] * 4) == 64
