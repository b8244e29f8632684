"""Unit tests for admission control: bounded queues and backpressure."""

import numpy as np
import pytest

from repro.cluster.router import HashShardRouter
from repro.core.procedure import ProcedureRegistry
from repro.core.txn import TransactionPool
from repro.errors import ConfigError
from repro.serve.admission import AdmissionController
from repro.serve.stream import Arrival
from tests.conftest import BANK_PROCEDURES


def deposit(account: int, t: float = 0.0) -> Arrival:
    return Arrival("deposit", (account, 5), t)


def transfer(src: int, dst: int, t: float = 0.0) -> Arrival:
    return Arrival("transfer", (src, dst, 1), t)


@pytest.fixture
def registry() -> ProcedureRegistry:
    registry = ProcedureRegistry()
    registry.register_many(BANK_PROCEDURES)
    return registry


class TestGlobalBound:
    def test_rejects_when_queue_full(self):
        controller = AdmissionController(max_pending=2)
        pool = TransactionPool()
        assert controller.offer(deposit(0), pool)
        assert controller.offer(deposit(1), pool)
        assert not controller.offer(deposit(2), pool)
        assert len(pool) == 2
        stats = controller.stats
        assert (stats.offered, stats.admitted, stats.rejected) == (3, 2, 1)
        assert stats.high_water == 2
        assert stats.rejection_rate == pytest.approx(1 / 3)

    def test_draining_the_pool_reopens_admission(self):
        controller = AdmissionController(max_pending=1)
        pool = TransactionPool()
        assert controller.offer(deposit(0), pool)
        assert not controller.offer(deposit(1), pool)
        taken = pool.take()
        controller.note_executed(taken)
        assert controller.offer(deposit(2), pool)

    def test_admitted_keep_arrival_order_ids(self):
        controller = AdmissionController(max_pending=10)
        pool = TransactionPool()
        for i in range(3):
            controller.offer(deposit(i, t=i * 0.1), pool)
        txns = pool.take()
        assert [t.txn_id for t in txns] == [0, 1, 2]
        assert [t.submit_time for t in txns] == [0.0, 0.1, 0.2]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AdmissionController(max_pending=0)

    @pytest.mark.parametrize("limit", [float("nan"), 2.5, True, "8"])
    def test_max_pending_must_be_an_int(self, limit):
        # NaN split the two paths (offer admitted every arrival,
        # offer_batch shed every one); 2.5 raised a TypeError mid-run.
        with pytest.raises(ConfigError, match="max_pending"):
            AdmissionController(max_pending=limit)

    @pytest.mark.parametrize("quota", [float("nan"), 1.5, True, 0])
    def test_tenant_quota_must_be_a_positive_int(self, quota):
        with pytest.raises(ConfigError, match="tenant 'a' quota"):
            AdmissionController(tenant_quotas={"a": quota})

    def test_numpy_limits_are_normalised(self):
        controller = AdmissionController(
            max_pending=np.int64(4), tenant_quotas={"a": np.int32(2)}
        )
        assert type(controller.max_pending) is int
        assert type(controller.tenant_quotas["a"]) is int


class TestPerShardBound:
    def make(self, registry, per_shard=2):
        return AdmissionController(
            max_pending=100,
            max_pending_per_shard=per_shard,
            router=HashShardRouter(2),
            registry=registry,
        )

    def test_hot_shard_sheds_while_other_admits(self, registry):
        controller = self.make(registry)
        pool = TransactionPool()
        # Accounts 0/2 -> shard 0; accounts 1/3 -> shard 1.
        assert controller.offer(deposit(0), pool)
        assert controller.offer(deposit(2), pool)
        assert not controller.offer(deposit(4), pool)  # shard 0 full
        assert controller.offer(deposit(1), pool)      # shard 1 still open
        assert controller.stats.rejected_by_shard == {0: 1}
        assert controller.shard_depth(0) == 2
        assert controller.shard_depth(1) == 1

    def test_cross_shard_counts_against_all_touched(self, registry):
        controller = self.make(registry)
        pool = TransactionPool()
        assert controller.offer(transfer(0, 1), pool)  # shards {0, 1}
        assert controller.offer(transfer(2, 3), pool)  # both now at 2
        assert not controller.offer(deposit(4), pool)
        assert not controller.offer(deposit(5), pool)

    def test_note_executed_frees_slots(self, registry):
        controller = self.make(registry)
        pool = TransactionPool()
        controller.offer(transfer(0, 1), pool)
        controller.offer(transfer(2, 3), pool)
        controller.note_executed(pool.take())
        assert controller.shard_depth(0) == 0
        assert controller.shard_depth(1) == 0
        assert controller.offer(deposit(4), pool)

    @pytest.mark.parametrize("per_shard", [float("nan"), 1.5, True])
    def test_per_shard_limit_must_be_an_int(self, registry, per_shard):
        with pytest.raises(ConfigError, match="max_pending_per_shard"):
            self.make(registry, per_shard=per_shard)

    def test_per_shard_needs_router_and_registry(self, registry):
        with pytest.raises(ConfigError):
            AdmissionController(max_pending=10, max_pending_per_shard=2)
        with pytest.raises(ConfigError):
            AdmissionController(
                max_pending=10,
                max_pending_per_shard=0,
                router=HashShardRouter(2),
                registry=registry,
            )
