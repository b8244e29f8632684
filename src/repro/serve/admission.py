"""Admission control: bounded queues and backpressure at the front door.

The paper's engine assumes bulks arrive fully formed; a server facing
an open arrival stream has to bound how much work it buffers, or a
burst turns into unbounded queue growth and unbounded latency. The
:class:`AdmissionController` enforces two limits as arrivals are
offered:

* a **global** cap on pending (admitted-but-unexecuted) transactions;
* optionally a **per-tenant** quota: each tenant named in
  ``tenant_quotas`` may hold at most that many pending transactions,
  so a saturating tenant sheds its own overflow instead of crowding
  everyone else out of the global buffer (the isolation contract the
  scenario verifiers assert);
* optionally a **per-shard** cap: arrivals are routed through the
  cluster's :class:`~repro.cluster.router.ShardRouter` at admission
  time, so one hot shard saturating its queue sheds its own load
  instead of stalling the whole cluster (a cross-shard transaction
  counts against every shard it touches).

Rejected arrivals are dropped and counted -- the client-visible
backpressure signal. Admitted arrivals are stamped into the backend's
transaction pool immediately, in arrival order, so pool ids (the
Definition-1 timestamps) agree with arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.router import ShardRouter
from repro.core.procedure import ProcedureRegistry
from repro.core.txn import Transaction, TransactionColumns, TransactionPool
from repro.errors import ConfigError, check_int
from repro.serve.stream import Arrival, ArrivalSlice


@dataclass
class AdmissionStats:
    """Counters the server reports alongside latency percentiles."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    rejected_by_shard: Dict[int, int] = field(default_factory=dict)
    #: Deepest the global queue ever got (pending transactions).
    high_water: int = 0
    #: Per-tenant splits of the counters above (tenanted arrivals only).
    admitted_by_tenant: Dict[str, int] = field(default_factory=dict)
    rejected_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: Deepest each tenant's share of the queue ever got -- the number
    #: the quota-isolation verifier compares against the quota.
    tenant_high_water: Dict[str, int] = field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0


class AdmissionController:
    """Bounded-queue gatekeeper between the stream and the pool."""

    def __init__(
        self,
        max_pending: int = 8192,
        *,
        max_pending_per_shard: Optional[int] = None,
        router: Optional[ShardRouter] = None,
        registry: Optional[ProcedureRegistry] = None,
        tenant_quotas: Optional[Dict[str, int]] = None,
        record_admitted: bool = False,
    ) -> None:
        max_pending = check_int("max_pending", max_pending, 1)
        if max_pending_per_shard is not None:
            max_pending_per_shard = check_int(
                "max_pending_per_shard", max_pending_per_shard, 1
            )
            if router is None or registry is None:
                raise ConfigError(
                    "per-shard admission limits need a router and a "
                    "procedure registry to route arrivals"
                )
        if tenant_quotas is not None:
            if not all(tenant_quotas):
                raise ConfigError("tenant names must be non-empty")
            tenant_quotas = {
                tenant: check_int(f"tenant {tenant!r} quota", quota, 1)
                for tenant, quota in tenant_quotas.items()
            }
        self.max_pending = max_pending
        self.max_pending_per_shard = max_pending_per_shard
        self.router = router
        self.registry = registry
        self.tenant_quotas = tenant_quotas
        self.stats = AdmissionStats()
        #: Admitted transactions in admission (= timestamp) order, kept
        #: only when asked: the scenario verifiers replay this log
        #: through the serial oracle for Definition-1 checks.
        self.record_admitted = record_admitted
        self.admitted_log = TransactionColumns()
        self._shard_depth: Dict[int, int] = {}
        self._shards_of_txn: Dict[int, "frozenset[int]"] = {}
        self._tenant_depth: Dict[str, int] = {}
        self._tenant_of_txn: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def _route(self, arrival: Arrival) -> "frozenset[int]":
        assert self.router is not None and self.registry is not None
        return self.router.shards_of(
            self.registry.get(arrival.type_name), arrival.params
        )

    def offer(self, arrival: Arrival, pool: TransactionPool) -> bool:
        """Admit ``arrival`` into ``pool``, or reject it (backpressure).

        Admission is the only path into the pool while a server runs,
        so ``len(pool)`` is the authoritative global queue depth --
        including transactions a strategy deferred back (streaming
        K-SET), which still occupy buffer space.
        """
        self.stats.offered += 1
        return self._offer_walked([arrival], pool)[0]

    def offer_batch(
        self, arrivals: Sequence[Arrival], pool: TransactionPool
    ) -> List[bool]:
        """Admit a slice of arrivals at once; returns per-arrival fates.

        Decision-identical to calling :meth:`offer` on each arrival in
        order -- same admit/shed choices, same counters, same tenant
        and shard accounting, same pool ids. The common untenanted,
        unsharded case short-circuits to a closed form: within a batch
        the queue only deepens, so the global cap admits exactly the
        first ``max_pending - len(pool)`` arrivals and sheds the rest,
        and the slice's columns stamp into the pool with one batched
        submit, no ``Arrival`` built. Tenant quotas and per-shard caps
        make fates depend on the running depths, so those walk the
        slice's rows (routing is state-independent either way).
        ``arrivals`` is an :class:`ArrivalSlice` or any sequence of
        ``Arrival``.
        """
        n = len(arrivals)
        if n == 0:
            return []
        self.stats.offered += n
        if not isinstance(arrivals, ArrivalSlice):
            arrivals = ArrivalSlice.of(arrivals)
        plain = (
            self.tenant_quotas is None
            and self.max_pending_per_shard is None
            and not any(arrivals.tenant)
        )
        if not plain:
            return self._offer_walked(arrivals, pool)
        k = min(n, max(0, self.max_pending - len(pool)))
        if k:
            txns = pool.submit_batch(
                zip(arrivals.type_name[:k], arrivals.params[:k],
                    arrivals.submit_time[:k])
            )
            if self.record_admitted:
                self.admitted_log.extend(txns)
            self.stats.admitted += k
            # len(pool) is monotone over the batch, so the running max
            # the per-arrival path tracks is just the final depth.
            self.stats.high_water = max(self.stats.high_water, len(pool))
        if k < n:
            self.stats.rejected += n - k
        return [True] * k + [False] * (n - k)

    def _offer_walked(
        self, arrivals: Sequence[Arrival], pool: TransactionPool
    ) -> List[bool]:
        """Admit or shed each arrival in order against the running
        depths, then stamp the admitted ones into the pool at once."""
        fates: List[bool] = []
        admitted: List[Tuple[Arrival, Optional[frozenset]]] = []
        for arrival in arrivals:
            ok, shards = self._admit_one(arrival, len(pool) + len(admitted))
            fates.append(ok)
            if ok:
                admitted.append((arrival, shards))
        if admitted:
            txns = pool.submit_batch(
                (a.type_name, a.params, a.submit_time) for a, _ in admitted
            )
            for txn_id, (arrival, shards) in zip(txns.txn_id, admitted):
                if shards is not None:
                    self._shards_of_txn[txn_id] = shards
                if arrival.tenant:
                    self._tenant_of_txn[txn_id] = arrival.tenant
            if self.record_admitted:
                self.admitted_log.extend(txns)
        return fates

    def _admit_one(
        self, arrival: Arrival, depth: int
    ) -> Tuple[bool, Optional[frozenset]]:
        """One arrival's fate at global queue depth ``depth``, with its
        shard set when admitted under per-shard caps."""
        tenant = arrival.tenant
        if depth >= self.max_pending:
            self._reject(tenant)
            return False, None
        if tenant and self.tenant_quotas is not None:
            quota = self.tenant_quotas.get(tenant)
            if (
                quota is not None
                and self._tenant_depth.get(tenant, 0) >= quota
            ):
                self._reject(tenant)
                return False, None
        shards: Optional[frozenset] = None
        if self.max_pending_per_shard is not None:
            shards = self._route(arrival)
            for shard in shards:
                if (
                    self._shard_depth.get(shard, 0)
                    >= self.max_pending_per_shard
                ):
                    self._reject(tenant)
                    by_shard = self.stats.rejected_by_shard
                    by_shard[shard] = by_shard.get(shard, 0) + 1
                    return False, None
            for shard in shards:
                self._shard_depth[shard] = self._shard_depth.get(shard, 0) + 1
        if tenant:
            depth_t = self._tenant_depth.get(tenant, 0) + 1
            self._tenant_depth[tenant] = depth_t
            high = self.stats.tenant_high_water
            high[tenant] = max(high.get(tenant, 0), depth_t)
            by_tenant = self.stats.admitted_by_tenant
            by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
        self.stats.admitted += 1
        self.stats.high_water = max(self.stats.high_water, depth + 1)
        return True, shards

    def _reject(self, tenant: str) -> None:
        self.stats.rejected += 1
        if tenant:
            by_tenant = self.stats.rejected_by_tenant
            by_tenant[tenant] = by_tenant.get(tenant, 0) + 1

    def note_executed(self, transactions: Iterable[Transaction]) -> None:
        """Release per-shard and per-tenant slots once transactions
        finish for good.

        Called with the *executed* (not merely dequeued) transactions:
        deferred/requeued ones keep their slots because they still sit
        in the pool. Free while no tenant or shard slot is held.
        """
        if not self._tenant_of_txn and not self._shards_of_txn:
            return
        tenant_depth, shard_depth = self._tenant_depth, self._shard_depth
        for txn_id in TransactionColumns.of(transactions).txn_id:
            tenant = self._tenant_of_txn.pop(txn_id, None)
            if tenant is not None:
                tenant_depth[tenant] = max(0, tenant_depth.get(tenant, 0) - 1)
            for shard in self._shards_of_txn.pop(txn_id, ()):
                shard_depth[shard] = max(0, shard_depth.get(shard, 0) - 1)

    def shard_depth(self, shard: int) -> int:
        return self._shard_depth.get(shard, 0)

    def tenant_depth(self, tenant: str) -> int:
        """Pending (admitted-but-unexecuted) transactions of a tenant."""
        return self._tenant_depth.get(tenant, 0)

    def tenant_of(self, txn_id: int) -> str:
        """Tenant an admitted, still-pending transaction came from.

        Valid until :meth:`note_executed` releases the transaction;
        untenanted (or unknown) ids map to ``""``.
        """
        return self._tenant_of_txn.get(txn_id, "")
