"""Ad-hoc execution baseline: one transaction at a time (Section 6.3).

"We simulate the ad-hoc transaction executions on the GPU by evaluating
the transaction sequentially using one GPU core." Against this baseline
the bulk execution model achieves its 16-146x improvement. The single
core loses coalescing and latency hiding, which the serial cost model
reflects. With ``per_task_launch_overhead=True`` every transaction
additionally pays a kernel launch (true ad-hoc dispatch, an upper bound
on the ad-hoc penalty); the paper's baseline is the plain sequential
single-core run, the default here.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.executor import (
    PHASE_EXECUTION,
    PHASE_TRANSFER_IN,
    PHASE_TRANSFER_OUT,
    ExecutionResult,
    StrategyExecutor,
)
from repro.core.oparray import OpArray
from repro.core.txn import ResultColumns, Transaction, TransactionColumns
from repro.gpu.costmodel import TimeBreakdown


class AdhocExecutor(StrategyExecutor):
    """Sequential single-core GPU execution, in timestamp order."""

    name = "adhoc"

    def __init__(self, *args, per_task_launch_overhead: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.per_task_launch_overhead = per_task_launch_overhead

    def execute(
        self, transactions: Sequence[Transaction], ops: OpArray
    ) -> ExecutionResult:
        # Serial execution reads no conflict information from ``ops``;
        # a bulk is in timestamp order already.
        breakdown = TimeBreakdown()
        if not transactions:
            return ExecutionResult(self.name, ResultColumns(), breakdown)
        transactions = TransactionColumns.of(transactions)
        breakdown.add(
            PHASE_TRANSFER_IN, self.input_transfer_seconds(transactions)
        )
        tasks = self.build_tasks(transactions)
        report = self.engine.launch_serial(
            tasks,
            self.adapter,
            per_task_launch_overhead=self.per_task_launch_overhead,
        )
        breakdown.add(PHASE_EXECUTION, report.seconds)
        results = self.finalize_kernel(transactions, report)
        breakdown.add(PHASE_TRANSFER_OUT, self.output_transfer_seconds(results))
        return ExecutionResult(
            self.name, results, breakdown, kernel_reports=[report]
        )
