"""Unit tests for bulk formers and the chooser's strategy feedback."""

import numpy as np
import pytest

from repro.core.chooser import StrategyFeedback
from repro.errors import ConfigError
from repro.serve.controller import (
    INCREASE_STEP,
    SERVICE_FRACTION,
    AdaptiveBulkFormer,
    FixedBulkFormer,
    SLOConfig,
)


def observe(former, *, size=None, service_s=0.0001, p95=0.0, strategy="kset"):
    former.observe(
        size=size if size is not None else former.target_size(),
        strategy=strategy,
        service_s=service_s,
        p95_total_s=p95,
    )


class TestSLOConfig:
    def test_budget_split(self):
        slo = SLOConfig(target_p95_s=0.01)
        assert slo.service_budget_s == pytest.approx(0.01 * SERVICE_FRACTION)
        assert slo.form_wait_s == pytest.approx(0.01 * (1 - SERVICE_FRACTION))
        assert slo.service_budget_s + slo.form_wait_s == pytest.approx(0.01)
        explicit = SLOConfig(target_p95_s=0.01, max_form_wait_s=0.002)
        assert explicit.form_wait_s == 0.002

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_p95_s": 0.0},
            {"min_bulk": 0},
            {"min_bulk": 64, "max_bulk": 32},
            # A NaN target makes every AIMD comparison false.
            {"target_p95_s": float("nan")},
            {"max_form_wait_s": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SLOConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # A float size reaches a slice partway through a stream.
            {"min_bulk": 2.5},
            {"max_bulk": float("inf")},
            {"max_bulk": 64.0},
            {"min_bulk": True},
            {"max_form_wait_s": float("nan")},
            {"max_form_wait_s": "0.01"},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()),
    )
    def test_sizes_are_ints_and_waits_not_nan(self, kwargs):
        with pytest.raises(ConfigError):
            SLOConfig(**kwargs)

    def test_integral_values_are_normalised(self):
        slo = SLOConfig(
            target_p95_s=np.float32(0.5), min_bulk=np.int64(8),
            max_bulk=np.int32(64), max_form_wait_s=np.float64(0.25),
        )
        assert (slo.target_p95_s, slo.min_bulk, slo.max_bulk) == (0.5, 8, 64)
        assert [type(v) for v in (slo.min_bulk, slo.max_bulk)] == [int, int]
        assert type(slo.form_wait_s) is float


class TestFixedBulkFormer:
    def test_constant_target(self):
        former = FixedBulkFormer(128, max_form_wait_s=0.01)
        assert former.target_size() == 128
        observe(former, size=128, p95=99.0)  # feedback is ignored
        assert former.target_size() == 128
        assert former.max_form_wait_s == 0.01

    def test_validation(self):
        with pytest.raises(ConfigError):
            FixedBulkFormer(0)
        with pytest.raises(ConfigError):
            FixedBulkFormer(8, max_form_wait_s=0.0)

    @pytest.mark.parametrize(
        "size, wait",
        [
            (2.5, 0.05),
            (8.0, 0.05),
            (float("inf"), 0.05),
            (True, 0.05),
            (8, float("nan")),
        ],
    )
    def test_size_is_an_int_and_wait_not_nan(self, size, wait):
        with pytest.raises(ConfigError):
            FixedBulkFormer(size, max_form_wait_s=wait)

    def test_integral_size_is_normalised(self):
        former = FixedBulkFormer(np.int64(16), max_form_wait_s=np.float64(0.01))
        assert type(former.target_size()) is int
        assert former.target_size() == 16
        assert type(former.max_form_wait_s) is float


class TestAdaptiveBulkFormer:
    def slo(self, **kwargs) -> SLOConfig:
        base = dict(target_p95_s=0.01, min_bulk=8, max_bulk=64)
        base.update(kwargs)
        return SLOConfig(**base)

    def test_starts_at_min_bulk(self):
        former = AdaptiveBulkFormer(self.slo())
        assert former.target_size() == 8

    def test_clamps_at_max_under_sustained_backlog(self):
        """Queue-driven breaches grow the target, but never past
        max_bulk."""
        former = AdaptiveBulkFormer(self.slo())
        for _ in range(20):
            # p95 breached, service well under budget: drain mode.
            observe(former, service_s=0.0001, p95=1.0)
        assert former.target_size() == 64
        observe(former, service_s=0.0001, p95=1.0)
        assert former.target_size() == 64

    def test_clamps_at_min_under_service_breaches(self):
        """Service-driven breaches shrink the target, but never below
        min_bulk."""
        former = AdaptiveBulkFormer(self.slo())
        for _ in range(10):
            # p95 breached AND the bulk's own service time blew the
            # budget: the bulk was too big.
            observe(former, service_s=1.0, p95=1.0)
        assert former.target_size() == 8
        observe(former, service_s=1.0, p95=1.0)
        assert former.target_size() == 8

    def test_additive_growth_with_headroom(self):
        former = AdaptiveBulkFormer(self.slo(max_bulk=4096))
        observe(former, service_s=0.0001, p95=0.0)
        first = former.target_size()
        observe(former, size=first, service_s=0.0001, p95=0.0)
        assert former.target_size() - first <= INCREASE_STEP
        assert former.target_size() > 8

    def test_model_proposal_caps_oversized_bulks(self):
        """With a learned service curve, the target never exceeds the
        size whose predicted service time fits the budget."""
        slo = self.slo(target_p95_s=0.01, max_bulk=4096)
        former = AdaptiveBulkFormer(slo)
        # Alternating observations pin the affine model: fixed = 1 ms,
        # per-txn = 0.1 ms -> budget 5 ms (SERVICE_FRACTION of the
        # target) buys ~40 txns, far below the AIMD ceiling the
        # headroom growth builds up.
        for _ in range(15):
            observe(former, size=10, service_s=0.002, p95=0.0)
            observe(former, size=30, service_s=0.004, p95=0.0)
        assert former.target_size() == pytest.approx(40, abs=3)

    def test_trajectory_records_bulks(self):
        former = AdaptiveBulkFormer(self.slo())
        observe(former, size=8, strategy="part")
        assert former.trajectory == [(8, 8, "part")]


class TestStrategyFeedback:
    def test_unobserved_strategy_has_no_model(self):
        feedback = StrategyFeedback()
        assert feedback.predict_seconds("kset", 100) is None
        assert feedback.size_for_budget("kset", 0.01, 1, 100) is None
        assert feedback.observations("kset") == 0

    def test_degenerate_fit_falls_back_to_rate(self):
        feedback = StrategyFeedback()
        for _ in range(5):
            feedback.observe("kset", 100, 0.001)
        # One size only: through-origin rate, 10 us per transaction.
        assert feedback.predict_seconds("kset", 200) == pytest.approx(
            0.002
        )

    def test_affine_fit_recovers_fixed_and_slope(self):
        feedback = StrategyFeedback(alpha=0.5)
        # seconds = 1 ms + 10 us * size, observed at two sizes.
        for _ in range(8):
            feedback.observe("kset", 100, 0.002)
            feedback.observe("kset", 300, 0.004)
        assert feedback.predict_seconds("kset", 200) == pytest.approx(
            0.003, rel=0.1
        )
        # Budget 6 ms -> (0.006 - 0.001) / 1e-5 = 500 transactions.
        size = feedback.size_for_budget("kset", 0.006, 1, 10_000)
        assert size == pytest.approx(500, rel=0.15)

    def test_size_for_budget_clamps(self):
        feedback = StrategyFeedback()
        for _ in range(4):
            feedback.observe("kset", 100, 0.001)
        assert feedback.size_for_budget("kset", 1e-9, 16, 512) == 16
        assert feedback.size_for_budget("kset", 10.0, 16, 512) == 512

    def test_invalid_observations_ignored(self):
        feedback = StrategyFeedback()
        feedback.observe("kset", 0, 0.001)
        feedback.observe("kset", 10, -1.0)
        assert feedback.observations("kset") == 0
