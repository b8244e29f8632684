"""The leader pass for cross-shard transactions.

Following DiPETrans's leader/follower split, transactions whose access
set spans several shards are not farmed out to shard engines as
independent work: the *leader* (host CPU) quiesces the shards they
touch and drives the wave itself. Two commit paths share one
interpreter -- the CPU engine's (:func:`repro.cpu.engine.run_serial`):

* **serial** (:meth:`CrossShardCoordinator.execute`) -- the original
  leader pass: every transaction interpreted on the host, serially,
  in timestamp order, the wave's cost being the *sum* of the
  transactions' cycles. Serial execution in timestamp order is
  trivially Definition-1 equivalent; it remains the equivalence
  oracle and the fallback mode.
* **parallel** (:meth:`CrossShardCoordinator.execute_parallel`) -- the
  DiPETrans protocol proper: the leader statically conflict-partitions
  the wave into independent *groups* (connected components of the
  conflict graph, built from the wave's slice of the bulk's operation
  array), serialises one signature batch per group
  over its interconnect, and the groups execute on their home shards
  in parallel -- the wave's cost is the *max* over the shard lanes,
  not the sum. Groups are mutually conflict-free, so any interleaving
  of them is Definition-1 equivalent; the simulation interprets the
  wave in timestamp order (exactly the serial pass), which keeps
  outcomes, redo capture and per-shard physical state byte-identical
  to the serial oracle while the simulated clock models the
  follower-parallel schedule.

Two pieces live here besides the coordinator:

* :class:`ClusterStoreAdapter` -- a DeviceStore-protocol view that
  spans every shard: index probes fan out across the shards' rebuilt
  indexes, and row handles are *encoded* as ``shard * stride + local``
  so later reads/writes route back to the owning shard.
* :class:`FailoverController` / :class:`KillOrder` -- failure
  injection at wave boundaries plus recovery orchestration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

from repro.cluster.durability.failover import RecoveryReport
from repro.core.oparray import OpArray
from repro.core.procedure import ProcedureRegistry
from repro.core.tdg import TDependencyGraph
from repro.core.txn import ResultColumns, Transaction
from repro.cpu.costmodel import CpuCostModel
from repro.cpu.engine import DEVICE_ATOMICS, run_serial
from repro.cluster.router import ShardRouter
from repro.errors import ClusterError
from repro.gpu import ops as op_ir
from repro.gpu.spec import C1060, GPUSpec
from repro.storage.catalog import StoreAdapter

#: Device locks order threads *within* a kernel; the leader pass has
#: no kernel, so a stream that takes one was mis-routed to it.
_LEADER_REFUSED = DEVICE_ATOMICS | {op_ir.LOCK_ACQUIRE, op_ir.LOCK_RELEASE}

#: Row-handle stride separating shards in the leader's address space.
_SHARD_ROW_STRIDE = 1 << 32


def encode_row(shard: int, row: int) -> int:
    """Pack a shard-local row id into a cluster-global handle."""
    return shard * _SHARD_ROW_STRIDE + row


def decode_row(handle: int) -> Tuple[int, int]:
    """Inverse of :func:`encode_row`."""
    return handle // _SHARD_ROW_STRIDE, handle % _SHARD_ROW_STRIDE


class ClusterStoreAdapter:
    """A global DeviceStore view over every shard's adapter.

    Reads, writes and deletes route by the shard encoded in the row
    handle; inserts route by the inserted row's partition-key value;
    unique-index probes try each shard (keys are disjoint across
    shards, so at most one hits); multi-index probes concatenate the
    shards' results. Static maps are replicated, so shard 0 answers.
    """

    def __init__(
        self, adapters: Sequence[StoreAdapter], router: ShardRouter
    ) -> None:
        if len(adapters) != router.n_shards:
            raise ClusterError(
                f"{len(adapters)} shard adapters for "
                f"{router.n_shards}-shard router"
            )
        self.adapters = list(adapters)
        self.router = router

    # -- DeviceStore protocol -------------------------------------------
    def read(self, table: str, column: str, row: int) -> Any:
        shard, local = decode_row(row)
        return self.adapters[shard].read(table, column, local)

    def write(self, table: str, column: str, row: int, value: Any) -> Any:
        self._reject_replicated_mutation(table)
        shard, local = decode_row(row)
        return self.adapters[shard].write(table, column, local, value)

    def probe(self, index: str, key: Any) -> Any:
        db0 = self.adapters[0].db
        if index in db0.static_maps:
            return self.adapters[0].probe(index, key)
        if db0.index(index).unique:
            for shard, adapter in enumerate(self.adapters):
                row = adapter.probe(index, key)
                if row >= 0:
                    return encode_row(shard, row)
            return -1
        hits: List[int] = []
        for shard, adapter in enumerate(self.adapters):
            hits.extend(
                encode_row(shard, r) for r in adapter.probe(index, key)
            )
        return tuple(hits)

    def insert(self, table: str, values: Sequence[Any]) -> int:
        schema = self.adapters[0].db.table(table).schema
        if schema.partition_key is None:
            raise ClusterError(
                f"cannot route insert into replicated table {table!r}"
            )
        key = values[schema.column_index(schema.partition_key)]
        shard = self.router.shard_of_key(key)
        return encode_row(shard, self.adapters[shard].insert(table, values))

    def delete(self, table: str, row: int) -> None:
        self._reject_replicated_mutation(table)
        shard, local = decode_row(row)
        self.adapters[shard].delete(table, local)

    def _reject_replicated_mutation(self, table: str) -> None:
        """Replicated (partition-key-less) tables are read-only: a
        mutation would touch one replica and desync the others."""
        if self.adapters[0].db.table(table).schema.partition_key is None:
            raise ClusterError(
                f"cannot mutate replicated table {table!r} in the "
                "leader pass; replicated tables are read-only"
            )

    def cancel_insert(self, table: str, row: int) -> None:
        shard, local = decode_row(row)
        self.adapters[shard].cancel_insert(table, local)

    def cancel_delete(self, table: str, row: int) -> None:
        shard, local = decode_row(row)
        self.adapters[shard].cancel_delete(table, local)

    def row_width(self, table: str) -> int:
        return self.adapters[0].row_width(table)

    def apply_batch(self) -> None:
        for adapter in self.adapters:
            adapter.apply_batch()


@dataclass(frozen=True)
class GroupReport:
    """One independent conflict group of a parallel coordinator wave.

    ``start_s``/``seconds`` position the group's execution on its home
    shard's lane, measured from the wave start: the group starts once
    the leader has serialised its dispatch batch *and* the lane is
    free, mirroring how the telemetry layer draws it.
    """

    index: int
    home: int
    size: int
    shards: Tuple[int, ...]
    start_s: float
    seconds: float
    txn_lo: int
    txn_hi: int


@dataclass
class CoordinatorResult:
    """Outcome and timing of one leader wave."""

    results: ResultColumns = field(default_factory=ResultColumns)
    #: Execution time: the serial host interpretation (serial mode) or
    #: the makespan of the follower lanes net of dispatch (parallel).
    exec_seconds: float = 0.0
    #: Quiesce/release round trips for the shards this wave touched.
    sync_seconds: float = 0.0
    #: Leader-side serialisation of the per-group signature batches
    #: (zero for the serial leader, which dispatches nothing).
    dispatch_seconds: float = 0.0
    shards_touched: Tuple[int, ...] = ()
    #: Conflict groups of a parallel wave (empty for the serial pass).
    groups: List[GroupReport] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.exec_seconds + self.dispatch_seconds + self.sync_seconds


@dataclass(frozen=True)
class KillOrder:
    """A scheduled shard failure: fires before ``wave`` of ``bulk``."""

    shard: int
    bulk: int
    wave: int = 0


class FailoverController:
    """Failure injection and recovery orchestration for a durable
    :class:`~repro.cluster.runtime.ClusterTx`.

    Killing a shard models a device loss: the shard's engine and
    partition become unreachable, younger waves of the in-flight bulk
    are halted (requeued in timestamp order), and recovery promotes a
    replica -- checkpoint restore plus WAL-suffix replay -- then
    re-routes the shard id to the promoted device. The controller only
    *drives* the machinery; the durable state itself lives in
    :class:`~repro.cluster.durability.failover.ShardDurability`.
    """

    def __init__(self, cluster: Any) -> None:
        self._cluster = cluster
        self._orders: List[KillOrder] = []

    # -- failure injection ----------------------------------------------
    def kill(self, shard: int) -> None:
        """Take ``shard`` down immediately (between bulks)."""
        self._cluster._kill_shard(shard)

    def schedule_kill(self, shard: int, *, bulk: int, wave: int = 0) -> None:
        """Arrange for ``shard`` to die just before ``wave`` of
        ``bulk`` (bulks and waves are 0-indexed; a kill scheduled for
        a point the run has already passed fires at the next wave
        boundary)."""
        if not 0 <= shard < self._cluster.n_shards:
            raise ClusterError(
                f"no shard {shard} in a {self._cluster.n_shards}-shard "
                "cluster"
            )
        if bulk < 0 or wave < 0:
            raise ClusterError("kill bulk/wave must be >= 0")
        self._orders.append(KillOrder(shard=shard, bulk=bulk, wave=wave))

    def due_kills(self, bulk: int, wave: int) -> List[int]:
        """Pop the shards whose scheduled failure point has arrived."""
        due = [
            o.shard for o in self._orders if (o.bulk, o.wave) <= (bulk, wave)
        ]
        if due:
            self._orders = [
                o for o in self._orders if (o.bulk, o.wave) > (bulk, wave)
            ]
        return due

    @property
    def pending(self) -> Tuple[KillOrder, ...]:
        return tuple(self._orders)

    # -- recovery --------------------------------------------------------
    @property
    def dead(self) -> "frozenset[int]":
        return frozenset(self._cluster._dead)

    def recover(self, shard: int) -> RecoveryReport:
        """Promote a replica of ``shard`` and bring it back online."""
        return self._cluster.recover_shard(shard)


class CrossShardCoordinator:
    """Leader executor for cross-shard transactions (serial + grouped)."""

    def __init__(
        self,
        registry: ProcedureRegistry,
        adapters: Sequence[StoreAdapter],
        router: ShardRouter,
        spec: GPUSpec = C1060,
    ) -> None:
        self.registry = registry
        self.router = router
        self.adapter = ClusterStoreAdapter(adapters, router)
        self.cost = CpuCostModel()
        #: One-way latency of a leader<->shard control message (the
        #: shards' PCIe hop); a wave pays a gather and a release hop
        #: (the quiesce barrier).
        self.sync_latency_s = spec.pcie_latency_s
        #: Leader NIC bandwidth for group dispatch batches: the leader
        #: serialises one signature batch per group, so dispatch time
        #: is bytes-proportional and independent of the shard count.
        self.dispatch_bytes_per_s = spec.pcie_bandwidth_bytes_per_s

    def barrier_seconds(self) -> float:
        """Cost of one quiesce/release control round trip.

        The same gather + release pair a coordinator wave pays; a live
        router-table swap (:mod:`repro.cluster.elastic`) fences the
        affected shards with exactly one such barrier.
        """
        return 2.0 * self.sync_latency_s

    # ------------------------------------------------------------------
    def _interpret(
        self,
        transactions: Sequence[Transaction],
        shard_map: Dict[int, FrozenSet[int]],
    ) -> Tuple[
        List[Transaction],
        ResultColumns,
        List[float],
        "List[frozenset[int]]",
    ]:
        """Interpret one wave in timestamp order, one txn at a time.

        The leader is the CPU engine: the wave runs through
        :func:`repro.cpu.engine.run_serial` -- ``CpuEngine.execute``'s
        own loop and cost model -- over the cluster-wide store view,
        refusing device locks on top of the atomics no host pass runs.
        Shared by both commit paths so their outcomes, store mutations
        and redo capture are identical by construction. Returns the
        timestamp-sorted transactions plus parallel lists of results,
        per-transaction cycles (dispatch included) and shard sets
        (looked up in ``shard_map``, the bulk's routing).
        """
        order, results, cycles = run_serial(
            self.registry,
            transactions,
            self.adapter,
            self.cost,
            who="cross-shard transaction",
            refused=_LEADER_REFUSED,
        )
        shard_sets = [shard_map[txn.txn_id] for txn in order]
        return order, results, cycles, shard_sets

    # ------------------------------------------------------------------
    def execute(
        self,
        transactions: Sequence[Transaction],
        shard_map: Dict[int, FrozenSet[int]],
    ) -> CoordinatorResult:
        """Run one wave serially, in timestamp order (the oracle)."""
        out = CoordinatorResult()
        if not transactions:
            return out
        order, results, cycles, shard_sets = self._interpret(
            transactions, shard_map
        )
        out.results = results
        total = 0.0
        touched: set = set()
        for txn_cycles, shards in zip(cycles, shard_sets):
            total += txn_cycles
            touched |= shards
        out.exec_seconds = self.cost.seconds(total)
        out.sync_seconds = 2.0 * self.sync_latency_s
        out.shards_touched = tuple(sorted(touched))
        return out

    # ------------------------------------------------------------------
    def conflict_groups(
        self, transactions: Sequence[Transaction], ops: OpArray
    ) -> List[List[Transaction]]:
        """Partition a wave (``ops`` is its operation array) into
        independent conflict groups.

        Groups are the connected components of the wave's conflict
        graph, computed over the TDG's (reduced) edge set -- edge
        reduction never disconnects a component, since every dropped
        conflict edge is covered by a path of retained ones. Members
        of different groups share no data item, so the groups can
        execute in any interleaving (DiPETrans's static analysis).
        Returned in deterministic order (by oldest member), each
        group's members in timestamp order.
        """
        order = sorted(transactions, key=lambda t: t.txn_id)
        graph = TDependencyGraph.build(ops)
        parent: Dict[int, int] = {t.txn_id: t.txn_id for t in order}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for src, dsts in graph.succ.items():
            for dst in dsts:
                ra, rb = find(src), find(dst)
                if ra != rb:
                    # Union by smaller id keeps roots = oldest member.
                    if rb < ra:
                        ra, rb = rb, ra
                    parent[rb] = ra
        members: Dict[int, List[Transaction]] = {}
        for txn in order:
            members.setdefault(find(txn.txn_id), []).append(txn)
        return [members[root] for root in sorted(members)]

    # ------------------------------------------------------------------
    def execute_parallel(
        self,
        transactions: Sequence[Transaction],
        ops: OpArray,
        shard_map: Dict[int, FrozenSet[int]],
    ) -> CoordinatorResult:
        """Run one wave via the leader/follower group protocol.

        The leader conflict-partitions the wave, serialises one
        signature batch per group over its interconnect, and each
        group executes on its *home shard* -- the least-loaded shard
        among those the group touches. A group starts once its batch
        is dispatched and its lane is free; the wave's execution time
        is the completion of the slowest lane, not the serial sum.

        Physically the wave is interpreted in timestamp order exactly
        like :meth:`execute` -- groups are mutually conflict-free, so
        the timestamp-order interleaving is one of the schedules the
        protocol admits, and outcomes, store state and redo capture
        stay byte-identical to the serial oracle on every path.
        """
        out = CoordinatorResult()
        if not transactions:
            return out
        order, results, cycles, shard_sets = self._interpret(
            transactions, shard_map
        )
        out.results = results
        position = {t.txn_id: i for i, t in enumerate(order)}
        lanes = [0.0] * self.router.n_shards
        dispatch_end = 0.0
        touched: set = set()
        for index, group in enumerate(self.conflict_groups(order, ops)):
            group_shards: set = set()
            group_cycles = 0.0
            group_bytes = 0
            for txn in group:
                at = position[txn.txn_id]
                group_shards |= shard_sets[at]
                group_cycles += cycles[at]
                group_bytes += txn.signature_bytes()
            touched |= group_shards
            dispatch_end += group_bytes / self.dispatch_bytes_per_s
            home = min(
                sorted(
                    self.router.home_shards(group[0].txn_id, group_shards)
                ),
                key=lambda s: (lanes[s], s),
            )
            seconds = self.cost.seconds(group_cycles)
            start = max(dispatch_end, lanes[home])
            lanes[home] = start + seconds
            out.groups.append(
                GroupReport(
                    index=index,
                    home=home,
                    size=len(group),
                    shards=tuple(sorted(group_shards)),
                    start_s=start,
                    seconds=seconds,
                    txn_lo=group[0].txn_id,
                    txn_hi=group[-1].txn_id,
                )
            )
        makespan = max(lanes)
        # The last dispatched group starts at or after dispatch_end,
        # so the makespan always covers the dispatch serialisation.
        out.dispatch_seconds = dispatch_end
        out.exec_seconds = makespan - dispatch_end
        out.sync_seconds = 2.0 * self.sync_latency_s
        out.shards_touched = tuple(sorted(touched))
        return out
