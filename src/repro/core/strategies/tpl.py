"""TPL: two-phase locking bulk execution (Section 5.1, Appendix C).

Locks are counter-based spin locks implemented with GPU atomics
(Figure 11). A transaction's key for each data item is its *rank* in
that item's group from the k-set pipeline (Section 4.2): a thread
spins until the item's counter equals its key, which

* enforces timestamp order among conflicting transactions (fixing the
  non-determinism of the basic 0/1 lock), and
* rules out deadlock -- a thread only ever waits for strictly
  smaller-timestamp transactions, so the wait-for relation is acyclic.

Consecutive readers of an item share a rank; they pass the gate
concurrently and the last one to finish advances the counter (the
lock table's reader-run countdown).

Following the two-phase protocol, a transaction acquires the locks of
all its data items up front (growing phase) and releases them all
after its last operation (shrinking phase).

Abort handling (Appendix D): with TPL, "data operations from some
conflicting transactions can be executed concurrently", so when a
non-two-phase transaction aborts after writing, its successors in the
T-dependency sub-DAG may have read dirty state. Recovery marks the
aborted transaction, rolls it back, and also rolls back (and marks as
cascaded aborts) every executed transaction in the sub-DAG rooted at
it. Two-phase transactions abort before writing and cascade nothing.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.core.executor import (
    PHASE_EXECUTION,
    PHASE_GENERATION,
    PHASE_TRANSFER_IN,
    PHASE_TRANSFER_OUT,
    ExecutionResult,
    StrategyExecutor,
)
from repro.core.kset import compute_ranks
from repro.core.oparray import OpArray
from repro.core.tdg import TDependencyGraph
from repro.core.tx_logging import rollback
from repro.core.txn import ResultColumns, Transaction, TransactionColumns
from repro.gpu.atomics import LockTable
from repro.gpu.costmodel import TimeBreakdown


class TplExecutor(StrategyExecutor):
    """Two-phase locking with deterministic counter locks."""

    name = "tpl"

    def __init__(self, *args, grouping_passes: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.grouping_passes = grouping_passes

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

        # ---- bulk generation: ranks -> lock keys ----------------------
        # Lock ids are the item groups' dense ids, counter keys the
        # entries' ranks: both are columns of the rank result (reused
        # as is when the profiler already ran the pipeline).
        ranks = compute_ranks(ops, self.primitives)
        breakdown.add(PHASE_GENERATION, ranks.gen_seconds)
        locks = LockTable(ranks.n_groups)
        for lock_id, key, size in ranks.reader_runs(ops):
            locks.set_run_size(lock_id, key, size)

        # Optional grouping by type to cut branch divergence (App. D).
        ordered = transactions
        if self.grouping_passes > 0:
            ordered, group_cost = self.group_by_type(
                ordered, self.grouping_passes
            )
            breakdown.add(PHASE_GENERATION, group_cost)

        # ---- kernel ----------------------------------------------------
        plans = ranks.lock_plans(ops, ordered.txn_id)
        report = self.backend.launch_locked(self, ordered, plans, locks)
        breakdown.add(PHASE_EXECUTION, report.seconds)

        # ---- recovery (aborts + TPL cascade) ---------------------------
        results, cascaded = self._recover(ordered, ops, report)
        breakdown.add(PHASE_TRANSFER_OUT, self.output_transfer_seconds(results))
        return ExecutionResult(
            self.name,
            results,
            breakdown,
            kernel_reports=[report],
            cascaded_aborts=cascaded,
        )

    # ------------------------------------------------------------------
    def _recover(self, ordered, ops, report):
        """Roll back aborted transactions, cascading through the
        sub-DAG; ``ordered`` are the launch's transactions."""
        outcomes = report.outcomes
        ids = outcomes.txn_id
        committed = list(outcomes.committed)
        reasons = list(outcomes.abort_reason)
        values = list(outcomes.result)
        aborted_ids = {ids[t] for t, ok in enumerate(committed) if not ok}
        cascaded: Set[int] = set()
        if aborted_ids:
            # Only non-two-phase aborters can have dirtied state.
            dirty_roots = [ids[t] for t in outcomes.undo if not committed[t]]
            if dirty_roots:
                graph = TDependencyGraph.build(ops)
                for root in sorted(dirty_roots):
                    cascaded |= graph.sub_dag_from(root)
                cascaded -= aborted_ids
            undone = aborted_ids | cascaded
            position = {i: t for t, i in enumerate(ids) if i in undone}
            # Roll back in reverse timestamp order so earlier states win.
            for txn_id in sorted(undone, reverse=True):
                rollback(self.adapter, outcomes.undo.get(position[txn_id], ()))
            for txn_id in cascaded:
                t = position[txn_id]
                committed[t] = False
                reasons[t] = "cascaded-rollback"
                values[t] = None
        results = ResultColumns(
            ids, list(ordered.type_name), committed, reasons, values
        )
        return results.sorted_by_id(), sorted(cascaded)
