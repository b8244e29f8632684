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
from repro.core.tx_logging import run_stream
from repro.core.txn import (
    BulkOutcome, ResultColumns, Transaction, TransactionColumns,
)
from repro.cpu.costmodel import CpuCostModel
from repro.errors import check_int
from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.spec import XEON_E5520
from repro.storage.catalog import Database, StoreAdapter


def run_serial(
    registry: ProcedureRegistry,
    transactions: Sequence[Transaction],
    adapter: Any,
    cost: CpuCostModel,
    *,
    who: str = "transaction",
    refused: FrozenSet[int] = frozenset(),
) -> Tuple[TransactionColumns, ResultColumns, List[float]]:
    """Run a batch through :func:`run_stream` in timestamp order.

    Returns the timestamp-sorted transactions plus parallel lists of
    results and per-transaction cycles (engine dispatch included).
    """
    order = TransactionColumns.of(transactions).sorted_by_id()
    results = ResultColumns(list(order.txn_id), list(order.type_name))
    cycles: List[float] = []
    for txn_id, type_name, params in zip(order.txn_id, order.type_name, order.params):
        txn_cycles, committed, reason, value = run_stream(
            registry.build_stream(type_name, params),
            adapter,
            cost,
            who=f"{who} {txn_id}",
            refused=refused,
        )
        cycles.append(txn_cycles + cost.dispatch())
        results.committed.append(committed)
        results.abort_reason.append(reason)
        results.value.append(value)
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
        num_cores: Optional[int] = None,
    ) -> None:
        #: The simulated host: always the paper's Xeon E5520.
        self.spec = XEON_E5520
        self.num_cores = (
            XEON_E5520.num_cores if num_cores is None
            else check_int("num_cores", num_cores, 1)
        )
        self.registry = ProcedureRegistry()
        if procedures:
            self.registry.register_many(procedures)
        self.adapter = StoreAdapter(db)
        self.cost = CpuCostModel(self.spec)

    def register(self, txn_type: TransactionType) -> int:
        return self.registry.register(txn_type)

    # ------------------------------------------------------------------
    def execute(self, transactions: Sequence[Transaction]) -> CpuExecutionResult:
        """Run a batch to completion; returns outcomes + makespan."""
        core_cycles = [0.0] * self.num_cores
        order, results, cycles = run_serial(
            self.registry, transactions, self.adapter, self.cost
        )
        for type_name, params, txn_cycles in zip(order.type_name, order.params, cycles):
            partition = self.registry.get(type_name).partition_of(params)
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
