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

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.executor import (
    PHASE_EXECUTION,
    PHASE_GENERATION,
    PHASE_TRANSFER_IN,
    PHASE_TRANSFER_OUT,
    ExecutionResult,
    StrategyExecutor,
)
from repro.core.kset import compute_ranks
from repro.core.procedure import Access
from repro.core.tdg import TDependencyGraph
from repro.core.txn import Transaction, TxnResult
from repro.gpu import ops as op_ir
from repro.gpu.atomics import LockTable
from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.simt import ThreadTask


class TplExecutor(StrategyExecutor):
    """Two-phase locking with deterministic counter locks."""

    name = "tpl"

    def __init__(self, *args, grouping_passes: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.grouping_passes = grouping_passes

    def execute(self, transactions: Sequence[Transaction]) -> ExecutionResult:
        breakdown = TimeBreakdown()
        if not transactions:
            return ExecutionResult(self.name, [], breakdown)
        breakdown.add(
            PHASE_TRANSFER_IN, self.input_transfer_seconds(transactions)
        )

        # ---- bulk generation: ranks -> lock keys ----------------------
        access_lists = [
            (t.txn_id, self.registry.get(t.type_name).accesses(t.params))
            for t in transactions
        ]
        ranks = compute_ranks(access_lists, self.primitives)
        breakdown.add(PHASE_GENERATION, ranks.gen_seconds)

        # Dense lock ids for the touched items.
        items = sorted({int(i) for i in ranks.entry_item})
        lock_of: Dict[int, int] = {item: i for i, item in enumerate(items)}
        locks = LockTable(len(items))
        for (item, rank), size in ranks.reader_run_sizes().items():
            locks.set_run_size(lock_of[item], rank, size)
        keys = ranks.lock_keys()

        # Optional grouping by type to cut branch divergence (App. D).
        ordered = list(transactions)
        if self.grouping_passes > 0:
            ordered, group_cost = self._group_by_type(ordered)
            breakdown.add(PHASE_GENERATION, group_cost)

        # ---- kernel ----------------------------------------------------
        access_map = {txn_id: accesses for txn_id, accesses in access_lists}
        plans = [
            self._lock_plan(txn, access_map[txn.txn_id], lock_of, keys)
            for txn in ordered
        ]
        report = self.backend.launch_locked(self, ordered, plans, locks)
        breakdown.add(PHASE_EXECUTION, report.seconds)

        # ---- recovery (aborts + TPL cascade) ---------------------------
        results, cascaded = self._recover(transactions, access_lists, report)
        breakdown.add(PHASE_TRANSFER_OUT, self.output_transfer_seconds(results))
        return ExecutionResult(
            self.name,
            results,
            breakdown,
            kernel_reports=[report],
            cascaded_aborts=cascaded,
        )

    # ------------------------------------------------------------------
    def _group_by_type(
        self, transactions: List[Transaction]
    ) -> Tuple[List[Transaction], float]:
        import numpy as np

        type_ids = np.asarray(
            [self.registry.type_id(t.type_name) for t in transactions],
            dtype=np.int64,
        )
        n_types = max(1, len(self.registry))
        key_bits = max(1, (n_types - 1).bit_length())
        order, cost = self.primitives.radix_partition(
            type_ids, self.grouping_passes, key_bits=key_bits
        )
        return [transactions[i] for i in order], cost

    @staticmethod
    def _lock_plan(
        txn: Transaction,
        accesses: Sequence[Access],
        lock_of: Dict[int, int],
        keys: Dict[Tuple[int, int], Tuple[int, bool]],
    ) -> List[Tuple[int, int, bool]]:
        """The transaction's ``(lock, key, shared)`` plan, merged item
        order -- the order both locking phases walk."""
        merged: Dict[int, bool] = {}
        for acc in accesses:
            merged[acc.item] = merged.get(acc.item, False) or acc.write
        plan = []
        for item in sorted(merged):
            key, shared = keys[(item, txn.txn_id)]
            plan.append((lock_of[item], key, shared))
        return plan

    def locked_task(
        self, txn: Transaction, plan: Sequence[Tuple[int, int, bool]]
    ) -> ThreadTask:
        """Wrap the stored procedure with the two locking phases."""
        inner = self.registry.build_stream(txn.type_name, txn.params)

        def stream():
            for lock_id, key, shared in plan:
                yield op_ir.LockAcquire(lock_id, key=key, shared=shared)
            result = yield from inner
            for lock_id, _key, _shared in plan:
                yield op_ir.LockRelease(lock_id)
            return result

        return ThreadTask(
            txn_id=txn.txn_id,
            type_id=self.registry.type_id(txn.type_name),
            body=stream(),
            capture_undo=self._needs_undo(txn),
        )

    def _recover(self, transactions, access_lists, report):
        """Roll back aborted transactions, cascading through the sub-DAG."""
        aborted_ids = {
            o.txn_id for o in report.outcomes if not o.committed
        }
        cascaded: Set[int] = set()
        if aborted_ids:
            # Only non-two-phase aborters can have dirtied state.
            dirty_roots = {
                o.txn_id
                for o in report.outcomes
                if not o.committed and o.undo
            }
            if dirty_roots:
                graph = TDependencyGraph.build(access_lists)
                for root in sorted(dirty_roots):
                    cascaded |= graph.sub_dag_from(root)
                cascaded -= aborted_ids
        outcome_by_id = {o.txn_id: o for o in report.outcomes}
        # Roll back in reverse timestamp order so earlier states win.
        for txn_id in sorted(aborted_ids | cascaded, reverse=True):
            self.rollback_outcome(outcome_by_id[txn_id])

        results: List[TxnResult] = []
        for txn in transactions:
            outcome = outcome_by_id[txn.txn_id]
            if txn.txn_id in cascaded:
                results.append(
                    TxnResult(
                        txn_id=txn.txn_id,
                        type_name=txn.type_name,
                        committed=False,
                        abort_reason="cascaded-rollback",
                    )
                )
            else:
                results.append(
                    TxnResult(
                        txn_id=txn.txn_id,
                        type_name=txn.type_name,
                        committed=outcome.committed,
                        abort_reason=outcome.abort_reason,
                        value=outcome.result,
                    )
                )
        self.adapter.apply_batch()
        return results, sorted(cascaded)
