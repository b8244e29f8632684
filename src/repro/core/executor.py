"""Shared machinery for the bulk execution strategies.

Every strategy (TPL, PART, K-SET, ad-hoc, and the relaxed variants of
Appendix G) produces an :class:`ExecutionResult`: per-transaction
outcomes plus a phase-labelled time breakdown, with the host<->device
transfer of signatures and results included (Section 6.1: "the
throughput measurement includes the data transfer ... for the input
transaction signatures and result output").

The base class also centralises what happens *after* a kernel:

* the batched apply of buffered inserts/deletes (Section 3.2);
* rollback of aborted transactions through their undo logs, and
  cancellation of their buffered inserts/deletes (Appendix D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.oparray import OpArray
from repro.core.procedure import ProcedureRegistry
from repro.core.tx_logging import rollback
from repro.core.txn import BulkOutcome, ResultColumns, Transaction
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
    deferred: List["Transaction"] = field(default_factory=list)
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
    def build_task(self, txn: Transaction) -> ThreadTask:
        """One transaction -> one GPU thread."""
        return ThreadTask(
            txn_id=txn.txn_id,
            type_id=self.registry.type_id(txn.type_name),
            body=self.registry.build_stream(txn.type_name, txn.params),
            capture_undo=self.registry.needs_undo(txn.type_name),
        )

    def locked_task(
        self,
        txn: Transaction,
        plan: Sequence[Tuple[int, Optional[int], bool]],
    ) -> ThreadTask:
        """Wrap the stored procedure with the two locking phases.

        ``plan`` is the thread's ``(lock, key, shared)`` list in
        ascending item order (globally sorted, so the lock graph stays
        acyclic); ``key=None`` takes the basic 0/1 spin lock.
        """
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
            capture_undo=self.registry.needs_undo(txn.type_name),
        )

    def input_transfer_seconds(self, transactions: Sequence[Transaction]) -> float:
        """Copy the bulk's signatures host -> device."""
        nbytes = sum(map(Transaction.signature_bytes, transactions))
        return self.pcie.to_device(nbytes, component="input")

    def output_transfer_seconds(self, results: ResultColumns) -> float:
        """Copy the bulk's results device -> host."""
        return self.pcie.to_host(results.result_bytes(), component="output")

    def group_by_type(
        self, transactions: List[Transaction], passes: int
    ) -> Tuple[List[Transaction], float]:
        """Radix-group a wave by transaction type to cut branch
        divergence (Appendix D); returns the new order and its cost."""
        type_ids = np.asarray(
            [self.registry.type_id(t.type_name) for t in transactions],
            dtype=np.int64,
        )
        n_types = max(1, len(self.registry))
        key_bits = max(1, (n_types - 1).bit_length())
        order, cost = self.primitives.radix_partition(
            type_ids, passes, key_bits=key_bits
        )
        return [transactions[i] for i in order], cost

    def finalize_kernel(
        self,
        transactions: Sequence[Transaction],
        report: KernelReport,
    ) -> ResultColumns:
        """Roll back aborts (in thread order), apply the insert/delete
        batch, build results; ``transactions`` are in thread order."""
        out = report.outcomes
        for t, undo in out.undo.items():
            if not out.committed[t]:
                rollback(self.adapter, undo)
        self.adapter.apply_batch()
        return ResultColumns(
            out.txn_id, [txn.type_name for txn in transactions],
            out.committed, out.abort_reason, out.result,
        )
