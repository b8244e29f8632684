"""Unit tests for the scenario registry, runner, and verifiers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.scenarios import (
    ForcedMigration,
    Scenario,
    ScenarioSetup,
    ShardKill,
    TenantSpec,
    all_scenarios,
    get,
    names,
    register,
    run_scenario,
    unregister,
    verify_scenario,
)
from repro.scenarios.seeds import _noisy_neighbor_setup

SEEDS = ("block_execution", "flash_sale", "noisy_neighbor")


def _dummy_setup(n, seed):  # pragma: no cover - never actually run
    raise AssertionError("registry tests never execute a scenario")


def _scenario(name="tmp_scenario", **overrides):
    kwargs = dict(
        name=name,
        description="registry test fixture",
        workload="none",
        setup=_dummy_setup,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestRegistry:
    def test_seeds_are_registered(self):
        assert set(SEEDS) <= set(names())
        assert [s.name for s in all_scenarios()] == names()

    def test_duplicate_name_rejected(self):
        register(_scenario())
        try:
            with pytest.raises(ConfigError, match="already registered"):
                register(_scenario())
        finally:
            unregister("tmp_scenario")

    def test_unknown_name_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            get("no_such_scenario")
        with pytest.raises(ConfigError, match="unknown scenario"):
            unregister("no_such_scenario")
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenario("no_such_scenario")


class TestSpecValidation:
    def test_tenant_spec(self):
        with pytest.raises(ConfigError, match="non-empty"):
            TenantSpec("", quota=4)
        with pytest.raises(ConfigError, match="quota"):
            TenantSpec("t", quota=0)
        with pytest.raises(ConfigError, match="slo_p95_s"):
            TenantSpec("t", quota=4, slo_p95_s=0.0)

    def test_fault_specs(self):
        with pytest.raises(ConfigError):
            ShardKill(shard=-1, at_bulk=0)
        with pytest.raises(ConfigError, match="differ"):
            ForcedMigration(src=1, dst=1, key_lo=0, key_hi=10)
        with pytest.raises(ConfigError, match="key_lo"):
            ForcedMigration(src=0, dst=1, key_lo=10, key_hi=10)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ShardKill(shard=0.5, at_bulk=0),
            lambda: ShardKill(shard=True, at_bulk=0),
            lambda: ShardKill(shard=0, at_bulk=float("nan")),
            lambda: ShardKill(shard=0, at_bulk=1, wave=1.5),
            lambda: ForcedMigration(0, 1, 0, 10, at_bulk=float("nan")),
            lambda: ForcedMigration(0, 1, 0.5, 10),
            lambda: ForcedMigration(True, 0, 0, 10),
        ],
        ids=[
            "kill-shard-half", "kill-shard-true", "kill-bulk-nan",
            "kill-wave-half", "move-bulk-nan", "move-key-half",
            "move-src-true",
        ],
    )
    def test_fault_coordinates_are_ints(self, make):
        """A NaN bulk compares false against every bulk, so the fault
        never fired and the scenario "verified" without it; a float
        shard or key and ``True`` (shard 1) were accepted."""
        with pytest.raises(ConfigError, match="must be an int"):
            make()

    def test_fault_coordinates_are_normalised(self):
        kill = ShardKill(shard=np.int64(1), at_bulk=np.int32(2))
        move = ForcedMigration(np.int64(0), 1, np.int64(0), 9, np.int8(1))
        assert [type(v) for v in (kill.shard, kill.at_bulk, move.src,
                                  move.key_lo, move.at_bulk)] == [int] * 5

    def test_scenario_cross_field_rules(self):
        with pytest.raises(ConfigError, match="mode"):
            _scenario(mode="batch")
        with pytest.raises(ConfigError, match="duplicate tenant"):
            _scenario(
                tenants=(TenantSpec("a", quota=1), TenantSpec("a", quota=2))
            )
        with pytest.raises(ConfigError, match="not[\\s\\S]*durable"):
            _scenario(
                durable=False, faults=(ShardKill(shard=0, at_bulk=0),)
            )
        with pytest.raises(ConfigError, match="router"):
            _scenario(
                router="hash",
                faults=(ForcedMigration(src=0, dst=1, key_lo=0, key_hi=9),),
            )
        with pytest.raises(ConfigError, match="only 2 shards"):
            _scenario(
                n_shards=2, faults=(ShardKill(shard=2, at_bulk=0),)
            )

    def test_quota_and_fault_accessors(self):
        scenario = _scenario(
            tenants=(TenantSpec("a", quota=3), TenantSpec("b", quota=7)),
            faults=(
                ShardKill(shard=0, at_bulk=1),
                ForcedMigration(src=0, dst=1, key_lo=0, key_hi=9),
            ),
        )
        assert scenario.quotas == {"a": 3, "b": 7}
        assert len(scenario.kills) == 1
        assert len(scenario.migrations) == 1


class TestRunner:
    def test_rejects_bad_run_parameters(self):
        with pytest.raises(ConfigError, match="faults mode"):
            run_scenario("noisy_neighbor", scale=0.02, faults="some")
        with pytest.raises(ConfigError, match="scale"):
            run_scenario("noisy_neighbor", scale=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": float("nan")},
            {"scale": float("inf")},
            {"scale": True},
            {"scale": "0.1"},
            {"seed": -1},
            {"seed": 2.5},
            {"seed": True},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()),
    )
    @pytest.mark.parametrize("entry", [run_scenario, verify_scenario])
    def test_scale_and_seed_fail_as_config_errors(self, entry, kwargs):
        """A NaN scale raised ``ValueError``, an infinite one
        ``OverflowError``, ``True`` ran at scale 1, and a negative or
        fractional seed failed inside NumPy or the workload generator."""
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            entry("flash_sale", **kwargs)

    def test_tiny_serve_run_produces_tenant_summaries(self):
        run = run_scenario("noisy_neighbor", scale=0.01)
        assert run.mode == "serve"
        assert run.n == 60
        assert run.executed > 0
        assert run.executed == len(run.admitted)
        assert set(run.tenants) <= {"victim", "aggressor"}
        assert run.serve is not None
        # Admission order is timestamp order: the oracle replay input.
        ids = [t.txn_id for t in run.admitted]
        assert ids == sorted(ids)

    def test_tiny_blocks_run_fires_declared_faults(self):
        run = run_scenario("block_execution", scale=0.1)
        assert run.mode == "blocks"
        assert run.kills_injected == 1
        assert len(run.migrations) == 1
        assert run.executed == run.n
        assert run.results  # per-bulk results captured

    def test_faults_mode_none_skips_everything(self):
        run = run_scenario("block_execution", scale=0.1, faults="none")
        assert run.kills_injected == 0
        assert run.migrations == []

    def test_quotas_off_admits_everything(self):
        bounded = run_scenario("noisy_neighbor", scale=0.02)
        unbounded = run_scenario("noisy_neighbor", scale=0.02, quotas=False)
        assert bounded.serve.admission.rejected > 0
        assert unbounded.serve.admission.rejected == 0


class TestVerifiers:
    def test_tiny_verify_passes_for_a_seed(self):
        report = verify_scenario("flash_sale", scale=0.05)
        assert report.ok, report.format()
        assert [c.name for c in report.checks] == [
            "definition-1", "isolation", "recovery",
        ]
        text = report.format()
        assert "scenario flash_sale:" in text
        assert "[PASS]" in text and "=> OK" in text

    def test_isolation_failure_is_reported_not_raised(self):
        scenario = register(
            Scenario(
                name="tmp_impossible_slo",
                description="victim SLO nothing can meet",
                workload="tm1",
                setup=_noisy_neighbor_setup,
                n_txns=600,
                tenants=(
                    TenantSpec("victim", quota=2048, slo_p95_s=1e-9),
                    TenantSpec("aggressor", quota=24, expect_shed=True),
                ),
                target_p95_s=0.01,
                min_bulk=32,
                max_bulk=128,
                durable=False,
                seed=23,
            )
        )
        try:
            run = run_scenario(scenario, scale=0.1)
            from repro.scenarios import check_isolation

            check = check_isolation(scenario, run)
            assert not check.passed
            assert "breaches SLO" in check.detail
        finally:
            unregister("tmp_impossible_slo")
