"""Unit tests for the H-Store-style CPU counterpart."""

import pytest

from repro.cpu.costmodel import CpuCostModel
from repro.cpu.engine import CpuEngine
from repro.errors import ConfigError
from repro.gpu.spec import XEON_E5520

from tests.conftest import (
    BANK_PROCEDURES,
    build_bank_db,
    make_transactions,
)


class TestCostModel:
    def test_memory_access_between_cache_and_dram(self):
        cost = CpuCostModel()
        assert 8.0 < cost.memory_access() < XEON_E5520.memory_latency_cycles

    def test_compute_uses_superscalar_factor(self):
        cost = CpuCostModel()
        assert cost.compute(10) == pytest.approx(
            10 / XEON_E5520.superscalar_factor
        )

    def test_dispatch_matches_spec(self):
        assert CpuCostModel().dispatch() == XEON_E5520.txn_dispatch_cycles


class TestCpuEngine:
    def test_functional_correctness(self):
        db = build_bank_db(8)
        engine = CpuEngine(db, procedures=BANK_PROCEDURES)
        txns = make_transactions(
            [("deposit", (0, 10)), ("deposit", (0, 5)), ("transfer", (0, 1, 7))]
        )
        result = engine.execute(txns)
        assert result.committed == 3
        assert db.table("accounts").read("balance", 0) == 108
        assert db.table("accounts").read("balance", 1) == 107

    def test_abort_rolls_back_inline(self):
        db = build_bank_db(4)
        engine = CpuEngine(db, procedures=BANK_PROCEDURES)
        txns = make_transactions([("risky", (2, 10, 1))])  # fails post-write
        result = engine.execute(txns)
        assert result.committed == 0
        assert db.table("accounts").read("balance", 2) == 100
        assert db.table("accounts").read("version", 2) == 0

    def test_insufficient_funds_abort(self):
        db = build_bank_db(4)
        engine = CpuEngine(db, procedures=BANK_PROCEDURES)
        result = engine.execute(
            make_transactions([("transfer", (0, 1, 10_000))])
        )
        assert result.results[0].abort_reason == "insufficient funds"
        assert db.table("accounts").read("balance", 0) == 100

    def test_multicore_faster_than_single_core(self):
        specs = [("deposit", (i % 16, 1)) for i in range(64)]

        def run(cores: int) -> float:
            db = build_bank_db(16)
            engine = CpuEngine(db, procedures=BANK_PROCEDURES, num_cores=cores)
            return engine.execute(make_transactions(specs)).seconds

        assert run(1) > run(4)

    def test_makespan_is_max_core_time(self):
        db = build_bank_db(16)
        engine = CpuEngine(db, procedures=BANK_PROCEDURES, num_cores=4)
        # All transactions hit partition 0 -> core 0 does everything.
        result = engine.execute(
            make_transactions([("deposit", (0, 1))] * 12)
        )
        assert result.core_seconds[0] == pytest.approx(result.seconds)
        assert result.core_seconds[1] == 0.0

    def test_cross_partition_blocks_every_core(self):
        db = build_bank_db(16)
        engine = CpuEngine(db, procedures=BANK_PROCEDURES, num_cores=4)
        result = engine.execute(
            make_transactions([("transfer", (0, 5, 1))])
        )
        assert all(c > 0 for c in result.core_seconds)

    def test_invalid_core_count(self):
        with pytest.raises(ConfigError):
            CpuEngine(build_bank_db(2), num_cores=0)

    @pytest.mark.parametrize(
        "cores", [2.5, float("nan"), True], ids=["float", "nan", "bool"]
    )
    def test_non_integer_core_count_rejected(self, cores):
        """Regression: a float or NaN core count raised a raw TypeError
        inside execute, and True ran on "True" cores."""
        with pytest.raises(ConfigError, match="num_cores must be an int"):
            CpuEngine(build_bank_db(2), num_cores=cores)

    def test_throughput_reporting(self):
        db = build_bank_db(8)
        engine = CpuEngine(db, procedures=BANK_PROCEDURES)
        result = engine.execute(make_transactions([("audit", (0,))] * 10))
        assert result.throughput_tps() > 0
        assert result.throughput_ktps == pytest.approx(
            result.throughput_tps() / 1e3
        )
