"""Shared machinery for the bulk execution strategies.

Every strategy (TPL, PART, K-SET, ad-hoc, and the relaxed variants of
Appendix G) produces an :class:`ExecutionResult`: per-transaction
outcomes plus a phase-labelled time breakdown, with the host<->device
transfer of signatures and results included (Section 6.1: "the
throughput measurement includes the data transfer ... for the input
transaction signatures and result output").

The base class also centralises what happens *after* a kernel:

* rollback of aborted transactions through their undo logs, and
  cancellation of their inserts/deletes (Appendix D). Inserts and
  deletes apply in place -- the temporary insert buffer of Section
  3.2 is modelled as cost only -- so no batched apply runs after the
  kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.oparray import OpArray
from repro.core.procedure import ProcedureRegistry
from repro.core.tx_logging import rollback
from repro.core.txn import (
    BulkOutcome, ResultColumns, Transaction, TransactionColumns,
    signatures_bytes,
)
from repro.gpu import ops as op_ir
from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.primitives import PrimitiveLibrary
from repro.gpu.simt import KernelReport, SIMTEngine, ThreadTask
from repro.gpu.transfer import PCIeModel
from repro.storage.catalog import StoreAdapter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backends import InterpretedBackend

#: Phase names used in breakdowns (Figures 5, 12, 17).
PHASE_GENERATION = "generation"
PHASE_EXECUTION = "execution"
PHASE_TRANSFER_IN = "transfer_in"
PHASE_TRANSFER_OUT = "transfer_out"


@dataclass
class ExecutionResult(BulkOutcome):
    """Outcome of executing one bulk with some strategy."""

    strategy: str
    results: ResultColumns
    breakdown: TimeBreakdown
    kernel_reports: List[KernelReport] = field(default_factory=list)
    #: Transactions rolled back because a conflicting predecessor
    #: aborted after writing (TPL cascade, Appendix D).
    cascaded_aborts: List[int] = field(default_factory=list)
    #: Transactions not executed this bulk (streaming K-SET leaves
    #: blocked work in the pool for later bulks, Section 5.3).
    deferred: TransactionColumns = field(default_factory=TransactionColumns)
    #: Execution backend that ran this bulk's kernel waves:
    #: "interpreted" or "vectorized". The simulated figures are
    #: backend-independent by construction, only wall-clock differs.
    backend: str = "interpreted"
    #: Host wall-clock seconds spent executing the bulk (set by the
    #: engine facade; 0.0 when the executor was driven directly).
    wall_seconds: float = 0.0


class StrategyExecutor:
    """Base class: strategy-independent plumbing."""

    name = "base"

    def __init__(
        self,
        registry: ProcedureRegistry,
        adapter: StoreAdapter,
        engine: SIMTEngine,
        *,
        primitives: PrimitiveLibrary,
        pcie: PCIeModel,
        backend: "InterpretedBackend",
    ) -> None:
        self.registry = registry
        self.adapter = adapter
        self.engine = engine
        self.primitives = primitives
        self.pcie = pcie
        #: How waves execute on the host (see repro.core.backends).
        #: K-SET, PART and TPL route their kernel launches through it;
        #: ad-hoc and relaxed TPL launch on the SIMT engine directly
        #: (only the interpreter models serial-core execution and
        #: basic spin locks).
        self.backend = backend

    # ------------------------------------------------------------------
    # To be provided by strategies.
    # ------------------------------------------------------------------
    def execute(
        self, transactions: Sequence[Transaction], ops: OpArray
    ) -> ExecutionResult:
        """Execute one bulk; ``ops`` is its operation array."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------
    def build_task(self, txn_id: int, type_name: str, params: tuple) -> ThreadTask:
        """One transaction -> one GPU thread."""
        return ThreadTask(
            txn_id=txn_id,
            type_id=self.registry.type_id(type_name),
            body=self.registry.build_stream(type_name, params),
            capture_undo=self.registry.needs_undo(type_name),
        )

    def build_tasks(self, transactions: TransactionColumns) -> List[ThreadTask]:
        """:meth:`build_task` per transaction, in order."""
        return list(map(
            self.build_task, transactions.txn_id, transactions.type_name,
            transactions.params,
        ))

    def locked_task(
        self,
        txn_id: int,
        type_name: str,
        params: tuple,
        plan: Sequence[Tuple[int, Optional[int], bool]],
    ) -> ThreadTask:
        """Wrap the stored procedure with the two locking phases.

        ``plan`` is the thread's ``(lock, key, shared)`` list in
        ascending item order (globally sorted, so the lock graph stays
        acyclic); ``key=None`` takes the basic 0/1 spin lock.
        """
        task = self.build_task(txn_id, type_name, params)

        def stream(inner):
            for lock_id, key, shared in plan:
                yield op_ir.LockAcquire(lock_id, key=key, shared=shared)
            result = yield from inner
            for lock_id, _key, _shared in plan:
                yield op_ir.LockRelease(lock_id)
            return result

        task.body = stream(task.body)
        return task

    def input_transfer_seconds(self, transactions: Sequence[Transaction]) -> float:
        """Copy the bulk's signatures host -> device."""
        return self.pcie.to_device(
            signatures_bytes(transactions), component="input"
        )

    def output_transfer_seconds(self, results: ResultColumns) -> float:
        """Copy the bulk's results device -> host."""
        return self.pcie.to_host(results.result_bytes(), component="output")

    def group_by_type(
        self, transactions: TransactionColumns, passes: int
    ) -> Tuple[TransactionColumns, float]:
        """Radix-group a wave by transaction type to cut branch
        divergence (Appendix D); returns the new order and its cost."""
        type_ids = np.fromiter(
            map(self.registry.type_id, transactions.type_name), np.int64,
            len(transactions),
        )
        n_types = max(1, len(self.registry))
        key_bits = max(1, (n_types - 1).bit_length())
        order, cost = self.primitives.radix_partition(
            type_ids, passes, key_bits=key_bits
        )
        return transactions.take(order.tolist()), cost

    def finalize_kernel(
        self,
        transactions: TransactionColumns,
        report: KernelReport,
    ) -> ResultColumns:
        """Roll back aborts (in thread order) and build results;
        ``transactions`` are in thread order."""
        out = report.outcomes
        for t, undo in out.undo.items():
            if not out.committed[t]:
                rollback(self.adapter, undo)
        return ResultColumns(
            out.txn_id, list(transactions.type_name),
            out.committed, out.abort_reason, out.result,
        )
