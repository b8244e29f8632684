"""PART: partition-based bulk execution (Section 5.2).

The H-Store idea on a GPU: the database is horizontally partitioned on
the workload's partition key; a *single thread* executes each
partition's transactions sequentially, so no locks are needed inside a
partition. Parallelism comes from executing many partitions at once.
Where H-Store *pushes* transactions to worker threads, the GPU uses a
*pull* model:

1. a map primitive computes each transaction's partition id into P;
2. P is radix-sorted by partition id (stable, so timestamp order is
   preserved within a partition);
3. each GPU thread binary-searches the boundaries of its partition in
   P and executes its transactions back to back.

The partition size is a tuning knob (Figure 13): ``partition_size``
coarsens the raw partition key by that factor, trading fewer/longer
threads (less sorting + boundary overhead, longer critical path)
against more/shorter ones.

PART "works correctly on single-partitioned transactions. If there are
cross-partition transactions, we use TPL for execution" -- the executor
delegates the whole bulk to :class:`~repro.core.strategies.tpl.TplExecutor`
in that case, exactly the severe degradation the paper describes.

Aborts only affect the aborting transaction (its partition-mates have
not run yet), so the wrapper rolls its writes back inline and moves on.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.backends.base import PartitionOutcomes
from repro.core.executor import (
    PHASE_EXECUTION,
    PHASE_GENERATION,
    PHASE_TRANSFER_IN,
    PHASE_TRANSFER_OUT,
    ExecutionResult,
    StrategyExecutor,
)
from repro.core.oparray import NO_PARTITION, OpArray
from repro.core.strategies.tpl import TplExecutor
from repro.core.txn import ResultColumns, Transaction
from repro.gpu import ops as op_ir
from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.simt import ThreadTask


class PartExecutor(StrategyExecutor):
    """Partitioned single-threaded execution (pull model)."""

    name = "part"
    #: When True, bulk generation sorts P by partition id (the paper's
    #: default). The relaxed variant (Appendix G) groups with atomic
    #: counters + prefix sum instead, skipping the sort.
    timestamp_constrained = True

    def __init__(self, *args, partition_size: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.partition_size = partition_size

    # ------------------------------------------------------------------
    def execute(
        self, transactions: Sequence[Transaction], ops: OpArray
    ) -> ExecutionResult:
        breakdown = TimeBreakdown()
        if not transactions:
            return ExecutionResult(self.name, ResultColumns(), breakdown)

        # Cross-partition transactions force the TPL fallback.
        if (ops.partition == NO_PARTITION).any():
            fallback = TplExecutor(
                self.registry,
                self.adapter,
                self.engine,
                primitives=self.primitives,
                pcie=self.pcie,
                backend=self.backend,
            )
            result = fallback.execute(transactions, ops)
            result.strategy = f"{self.name}(tpl-fallback)"
            return result

        breakdown.add(
            PHASE_TRANSFER_IN, self.input_transfer_seconds(transactions)
        )

        # ---- bulk generation: map + sort by partition ------------------
        coarse = ops.partition // self.partition_size
        breakdown.add(PHASE_GENERATION, self.primitives.map_cost(len(coarse)))
        if self.timestamp_constrained:
            order, sort_cost = self.primitives.sort_by_composite(
                coarse, np.arange(len(coarse), dtype=np.int64)
            )
        else:
            # Appendix G: per-partition atomic counters + prefix sum +
            # scatter replace the sort (functionally, a stable group-by).
            order = np.argsort(coarse, kind="stable")
            n = len(coarse)
            sort_cost = (
                self.primitives.map_cost(n)
                + self.primitives.scan_cost(int(coarse.max()) + 1)
                + self.primitives.map_cost(n)
            )
        breakdown.add(PHASE_GENERATION, sort_cost)

        # ---- build one thread per non-empty partition ------------------
        grouped: Dict[int, List[Transaction]] = {}
        coarse_list = coarse.tolist()
        for idx in order.tolist():
            grouped.setdefault(coarse_list[idx], []).append(transactions[idx])
        boundary_cycles = 8 * max(1, math.ceil(math.log2(max(2, len(transactions)))))
        # The partition schedule executes through the configured
        # backend: one interpreted generator per partition thread, or
        # the vectorized backend's slot-parallel column kernels.
        parts = sorted(grouped.items())
        report = self.backend.launch_partitions(self, parts, boundary_cycles)
        breakdown.add(PHASE_EXECUTION, report.seconds)

        # ---- per-transaction outcomes ----------------------------------
        results = self._collect(report)
        breakdown.add(PHASE_TRANSFER_OUT, self.output_transfer_seconds(results))
        return ExecutionResult(
            self.name, results, breakdown, kernel_reports=[report]
        )

    # ------------------------------------------------------------------
    def partition_task(
        self, pid: int, txns: List[Transaction], boundary_cycles: int
    ) -> ThreadTask:
        """One GPU thread running a partition's transactions serially."""
        prepared = [
            (
                txn,
                self.registry.type_id(txn.type_name),
                self.registry.needs_undo(txn.type_name),
                self.registry.build_stream(txn.type_name, txn.params),
            )
            for txn in txns
        ]

        def stream():
            # Binary searches for the partition's [start, end) in P.
            yield op_ir.Compute(boundary_cycles)
            rows = ResultColumns()
            outcomes = PartitionOutcomes(rows, [], [])
            for txn, type_id, needs_undo, inner in prepared:
                yield op_ir.SetBranch(type_id)
                undo: List[Tuple[str, str, int, Any]] = []
                ins_cancel: List[Tuple[str, int]] = []
                del_cancel: List[Tuple[str, int]] = []
                aborted = False
                reason = ""
                result = None
                send: Any = None
                while True:
                    try:
                        op = inner.send(send)
                    except StopIteration as stop:
                        result = stop.value
                        break
                    send = None
                    if op.kind == op_ir.ABORT:
                        aborted = True
                        reason = op.reason
                        # Inline rollback: compensating writes.
                        for table, column, row, old in reversed(undo):
                            yield op_ir.Write(table, column, row, old)
                        break
                    if op.kind == op_ir.WRITE and needs_undo:
                        old = yield op_ir.Read(op.table, op.column, op.row)
                        undo.append((op.table, op.column, op.row, old))
                        send = yield op
                    elif op.kind == op_ir.INSERT_ROW:
                        provisional = yield op
                        ins_cancel.append((op.table, provisional))
                        send = provisional
                    elif op.kind == op_ir.DELETE_ROW:
                        send = yield op
                        del_cancel.append((op.table, op.row))
                    else:
                        send = yield op
                rows.extend(
                    ResultColumns(
                        [txn.txn_id], [txn.type_name], [not aborted], [reason],
                        [result],
                    )
                )
                if aborted:
                    outcomes.cancel_inserts.extend(ins_cancel)
                    outcomes.cancel_deletes.extend(del_cancel)
                # Loop bookkeeping between transactions.
                yield op_ir.Compute(2)
            return outcomes

        return ThreadTask(txn_id=pid, type_id=-1, body=stream())

    def _collect(self, report) -> ResultColumns:
        """Concatenate the partition threads' results (in id order),
        cancel what aborted transactions buffered, and apply the
        insert/delete batch."""
        threads = report.outcomes.result
        for part in threads:
            for table, provisional in part.cancel_inserts:
                self.adapter.cancel_insert(table, provisional)
        for part in threads:
            for table, row in part.cancel_deletes:
                self.adapter.cancel_delete(table, row)
        self.adapter.apply_batch()
        results = ResultColumns()
        for part in threads:
            results.extend(part.results)
        return results.sorted_by_id()
