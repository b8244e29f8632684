"""The CPU-based counterpart engine (Section 6.3).

"The CPU-based counterpart adopts the design of H-Store": the database
is horizontally partitioned; each partition is owned by one
single-threaded worker (core), which executes its transactions serially
in timestamp order with *no* locking or latching. Cross-partition
transactions fall back to a blocking protocol that quiesces every
worker (the cost every partitioned system pays; H-Store's "every node
blocks" single-site fallback).

Functionally, transactions execute in global timestamp order against
the shared database -- which is exactly what partition-serial execution
produces for single-partition workloads -- while *time* is accounted
per core: the engine's makespan is the maximum core time, so a skewed
partition load lengthens the critical path just as it would on real
silicon. ``num_cores=1`` gives the single-core baseline against which
the paper normalises Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.executor import PHASE_EXECUTION
from repro.core.procedure import ProcedureRegistry, TransactionType
from repro.core.txn import BulkOutcome, ResultColumns, Transaction
from repro.cpu.costmodel import CpuCostModel
from repro.errors import ConfigError, ExecutionError
from repro.gpu import ops as op_ir
from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.spec import CPUSpec, XEON_E5520
from repro.storage.catalog import Database, StoreAdapter


#: Raw device atomics have no host-core form, so no serial pass runs
#: them. A caller may refuse more: the cluster leader also refuses
#: device locks (``refused=`` below).
DEVICE_ATOMICS = frozenset({op_ir.ATOMIC_ADD, op_ir.ATOMIC_CAS})


def run_stream(
    stream: op_ir.OpStream,
    adapter: Any,
    cost: CpuCostModel,
    *,
    who: str,
    refused: FrozenSet[int] = DEVICE_ATOMICS,
) -> Tuple[float, bool, str, Any]:
    """Run one transaction's op stream to completion on one host core.

    The only serial op-stream interpreter outside the SIMT simulator:
    :class:`CpuEngine` and the cluster's cross-shard leader
    (:mod:`repro.cluster.coordinator`) both execute through it, so
    their outcomes and cycle charges agree by construction. ``adapter``
    is any DeviceStore-protocol store view; ``who`` names the
    transaction in errors; an op whose kind is in ``refused`` is an
    :class:`~repro.errors.ExecutionError`. Returns ``(cycles,
    committed, abort_reason, value)``. An abort is rolled back inline:
    serial execution makes that trivial (no other transaction has
    observed the writes).
    """
    cycles = 0.0
    undo: List[Tuple[str, str, int, Any]] = []
    pending_inserts: List[Tuple[str, int]] = []
    pending_deletes: List[Tuple[str, int]] = []
    send: Any = None
    while True:
        try:
            op = stream.send(send)
        except StopIteration as stop:
            return cycles, True, "", stop.value
        except Exception as exc:
            raise ExecutionError(f"{who} raised {exc!r}") from exc
        send = None
        kind = op.kind
        if kind == op_ir.READ:
            send = adapter.read(op.table, op.column, op.row)
            cycles += cost.memory_access()
        elif kind == op_ir.WRITE:
            old = adapter.write(op.table, op.column, op.row, op.value)
            undo.append((op.table, op.column, op.row, old))
            cycles += cost.memory_access()
        elif kind == op_ir.COMPUTE:
            cycles += cost.compute(op.amount)
        elif kind == op_ir.SFU_COMPUTE:
            cycles += cost.sfu(op.amount)
        elif kind == op_ir.INDEX_PROBE:
            send = adapter.probe(op.index, op.key)
            cycles += 2 * cost.memory_access()
        elif kind == op_ir.INSERT_ROW:
            provisional = adapter.insert(op.table, op.values)
            pending_inserts.append((op.table, provisional))
            send = provisional
            cycles += cost.insert(adapter.row_width(op.table))
        elif kind == op_ir.DELETE_ROW:
            adapter.delete(op.table, op.row)
            pending_deletes.append((op.table, op.row))
            cycles += cost.memory_access()
        elif kind == op_ir.ABORT:
            for table, column, row, old in reversed(undo):
                adapter.write(table, column, row, old)
                cycles += cost.memory_access()
            for table, provisional in pending_inserts:
                adapter.cancel_insert(table, provisional)
            for table, row in pending_deletes:
                adapter.cancel_delete(table, row)
            return cycles, False, op.reason, None
        elif kind in refused:
            raise ExecutionError(
                f"{who} issued {type(op).__name__}, which this serial "
                "host pass does not run"
            )
        elif kind in (op_ir.LOCK_ACQUIRE, op_ir.LOCK_RELEASE,
                      op_ir.SET_BRANCH):
            cycles += cost.compute(1)
        else:  # pragma: no cover - closed op table
            raise ExecutionError(f"unknown op kind {kind}")


def run_serial(
    registry: ProcedureRegistry,
    transactions: Sequence[Transaction],
    adapter: Any,
    cost: CpuCostModel,
    *,
    who: str = "transaction",
    refused: FrozenSet[int] = DEVICE_ATOMICS,
) -> Tuple[List[Transaction], ResultColumns, List[float]]:
    """Run a batch through :func:`run_stream` in timestamp order.

    Returns the timestamp-sorted transactions plus parallel lists of
    results and per-transaction cycles (engine dispatch included), and
    applies the buffered insert/delete batch once at the end.
    """
    order = sorted(transactions, key=lambda t: t.txn_id)
    results = ResultColumns(
        [txn.txn_id for txn in order], [txn.type_name for txn in order]
    )
    cycles: List[float] = []
    for txn in order:
        txn_cycles, committed, reason, value = run_stream(
            registry.build_stream(txn.type_name, txn.params),
            adapter,
            cost,
            who=f"{who} {txn.txn_id}",
            refused=refused,
        )
        cycles.append(txn_cycles + cost.dispatch())
        results.committed.append(committed)
        results.abort_reason.append(reason)
        results.value.append(value)
    adapter.apply_batch()
    return order, results, cycles


@dataclass
class CpuExecutionResult(BulkOutcome):
    """Outcome and timing of one CPU batch execution."""

    results: ResultColumns
    #: One phase: the makespan (the busiest core's time).
    breakdown: TimeBreakdown
    core_seconds: List[float] = field(default_factory=list)


class CpuEngine:
    """H-Store-style partitioned single-threaded execution engine."""

    def __init__(
        self,
        db: Database,
        procedures: Optional[Sequence[TransactionType]] = None,
        *,
        spec: CPUSpec = XEON_E5520,
        num_cores: Optional[int] = None,
    ) -> None:
        self.db = db
        self.spec = spec
        self.num_cores = num_cores if num_cores is not None else spec.num_cores
        if self.num_cores < 1:
            raise ConfigError("num_cores must be >= 1")
        self.registry = ProcedureRegistry()
        if procedures:
            self.registry.register_many(procedures)
        self.adapter = StoreAdapter(db)
        self.cost = CpuCostModel(spec)

    def register(self, txn_type: TransactionType) -> int:
        return self.registry.register(txn_type)

    # ------------------------------------------------------------------
    def execute(self, transactions: Sequence[Transaction]) -> CpuExecutionResult:
        """Run a batch to completion; returns outcomes + makespan."""
        core_cycles = [0.0] * self.num_cores
        order, results, cycles = run_serial(
            self.registry, transactions, self.adapter, self.cost
        )
        for txn, txn_cycles in zip(order, cycles):
            partition = self.registry.get(txn.type_name).partition_of(txn.params)
            if partition is None:
                # Cross-partition: quiesce -- every worker blocks for it.
                for core in range(self.num_cores):
                    core_cycles[core] += txn_cycles
            else:
                core_cycles[partition % self.num_cores] += txn_cycles
        return CpuExecutionResult(
            results=results,
            breakdown=TimeBreakdown(
                {PHASE_EXECUTION: self.cost.seconds(max(core_cycles))}
            ),
            core_seconds=[self.cost.seconds(c) for c in core_cycles],
        )
