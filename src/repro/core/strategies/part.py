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
not run yet), so the wrapper rolls it back inline -- writes, inserts
and deletes -- and moves on.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence

import numpy as np

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
from repro.core.tx_logging import (
    DELETE_SENTINEL, INSERT_SENTINEL, SENTINELS, UndoEntry, rollback,
)
from repro.core.txn import ResultColumns, Transaction, TransactionColumns
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
        transactions = TransactionColumns.of(transactions)

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

        # ---- one thread per non-empty partition: runs of ``order`` ------
        # Each partition is the run of positions ``order`` sorted
        # together, in timestamp order.
        sorted_coarse = coarse[order]
        cuts = np.flatnonzero(sorted_coarse[1:] != sorted_coarse[:-1]) + 1
        bounds = [0, *cuts.tolist(), len(order)]
        parts = list(zip(
            sorted_coarse[bounds[:-1]].tolist(),
            [order[a:b] for a, b in zip(bounds, bounds[1:])],
        ))
        boundary_cycles = 8 * max(1, math.ceil(math.log2(max(2, len(transactions)))))
        # The partition schedule executes through the configured
        # backend: one interpreted generator per partition thread, or
        # the vectorized backend's slot-parallel column kernels.
        report, results = self.backend.launch_partitions(
            self, parts, boundary_cycles, transactions
        )
        breakdown.add(PHASE_EXECUTION, report.seconds)

        # ---- per-transaction outcomes ----------------------------------
        results = results.sorted_by_id()
        breakdown.add(PHASE_TRANSFER_OUT, self.output_transfer_seconds(results))
        return ExecutionResult(
            self.name, results, breakdown, kernel_reports=[report]
        )

    # ------------------------------------------------------------------
    def partition_task(
        self, pid: int, txns: TransactionColumns, boundary_cycles: int
    ) -> ThreadTask:
        """One GPU thread running a partition's transactions serially."""
        prepared = [
            (
                txn_id,
                type_name,
                self.registry.type_id(type_name),
                self.registry.needs_undo(type_name),
                self.registry.build_stream(type_name, params),
            )
            for txn_id, type_name, params in zip(
                txns.txn_id, txns.type_name, txns.params
            )
        ]

        def stream():
            # Binary searches for the partition's [start, end) in P.
            yield op_ir.Compute(boundary_cycles)
            rows = ResultColumns()
            for txn_id, type_name, type_id, needs_undo, inner in prepared:
                yield op_ir.SetBranch(type_id)
                # Before-images (when undo-logged) and insert/delete
                # sentinels, in op order.
                log: List[UndoEntry] = []
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
                        # Inline rollback, in reverse op order, before a
                        # partition-mate can see the effects:
                        # compensating writes (charged ops) and
                        # cancelled inserts and deletes (free).
                        for entry in reversed(log):
                            if entry[0] in SENTINELS:
                                rollback(self.adapter, [entry])
                            else:
                                yield op_ir.Write(*entry)
                        break
                    if op.kind == op_ir.WRITE and needs_undo:
                        old = yield op_ir.Read(op.table, op.column, op.row)
                        log.append((op.table, op.column, op.row, old))
                        send = yield op
                    elif op.kind == op_ir.INSERT_ROW:
                        send = yield op
                        log.append((INSERT_SENTINEL, op.table, send, None))
                    elif op.kind == op_ir.DELETE_ROW:
                        send = yield op
                        log.append((DELETE_SENTINEL, op.table, op.row, None))
                    else:
                        send = yield op
                rows.extend(
                    ResultColumns(
                        [txn_id], [type_name], [not aborted], [reason],
                        [result],
                    )
                )
                # Loop bookkeeping between transactions.
                yield op_ir.Compute(2)
            return rows

        return ThreadTask(txn_id=pid, type_id=-1, body=stream())
