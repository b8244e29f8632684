"""Relaxed-timestamp execution strategies (Appendix G).

Some applications only need serializability, not Definition 1's
timestamp order. Dropping the constraint removes the sort from bulk
generation and loosens execution order:

* **TPL-relaxed**: the basic 0/1 spin lock of Figure 10 instead of the
  counter lock -- no rank computation at all. Conflicting transactions
  commit in whatever order the hardware resolves the CAS races; locks
  are acquired in globally sorted item order, which (unlike the
  arbitrary order of the naive kernel) keeps the lock graph acyclic so
  the bulk cannot deadlock.
* **PART-relaxed**: partitions are grouped with per-partition atomic
  counters + a prefix sum + a scatter, replacing the radix sort
  ("transactions can be grouped without sort").
* **K-SET-relaxed**: same counter-based grouping trick for the item
  groups; the 0-set iteration itself is unchanged (it is already
  arrival-ordered).

Figure 17 shows the effect: both generation and execution shrink, and
with cheap locks TPL comes out ahead -- the opposite of Figure 5.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.executor import (
    PHASE_EXECUTION,
    PHASE_GENERATION,
    PHASE_TRANSFER_IN,
    PHASE_TRANSFER_OUT,
    ExecutionResult,
    StrategyExecutor,
)
from repro.core.oparray import OpArray
from repro.core.strategies.kset_exec import KsetExecutor
from repro.core.strategies.part import PartExecutor
from repro.core.txn import ResultColumns, Transaction, TransactionColumns
from repro.gpu.atomics import LockTable
from repro.gpu.costmodel import TimeBreakdown


class RelaxedTplExecutor(StrategyExecutor):
    """TPL with basic 0/1 spin locks; serializable, not ts-ordered."""

    name = "tpl-relaxed"

    def execute(
        self, transactions: Sequence[Transaction], ops: OpArray
    ) -> ExecutionResult:
        breakdown = TimeBreakdown()
        if not transactions:
            return ExecutionResult(self.name, ResultColumns(), breakdown)
        transactions = TransactionColumns.of(transactions)
        breakdown.add(
            PHASE_TRANSFER_IN, self.input_transfer_seconds(transactions)
        )

        # Bulk generation: nothing but assigning dense lock ids (a map)
        # -- each entry's item group, regrouped per transaction.
        all_items, lock_of_entry = np.unique(ops.item, return_inverse=True)
        breakdown.add(
            PHASE_GENERATION, self.primitives.map_cost(max(1, len(all_items)))
        )

        locks = LockTable(len(all_items))
        tasks = list(map(
            self.locked_task, transactions.txn_id, transactions.type_name,
            transactions.params,
            [[(lock, None, False) for lock in lock_ids]
             for lock_ids in ops.per_txn(lock_of_entry)],
        ))
        report = self.engine.launch(tasks, self.adapter, locks=locks)
        breakdown.add(PHASE_EXECUTION, report.seconds)

        results = self.finalize_kernel(transactions, report)
        breakdown.add(PHASE_TRANSFER_OUT, self.output_transfer_seconds(results))
        return ExecutionResult(
            self.name, results, breakdown, kernel_reports=[report]
        )


class RelaxedPartExecutor(PartExecutor):
    """PART grouped by atomic counters + scan instead of a sort."""

    name = "part-relaxed"
    timestamp_constrained = False


class RelaxedKsetExecutor(KsetExecutor):
    """K-SET with counter-based grouping of the item groups."""

    name = "kset-relaxed"
    timestamp_constrained = False
