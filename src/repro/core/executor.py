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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.core.procedure import ProcedureRegistry
from repro.core.txn import Transaction, TxnResult
from repro.gpu.costmodel import TimeBreakdown
from repro.gpu.primitives import PrimitiveLibrary
from repro.gpu.simt import KernelReport, SIMTEngine, ThreadOutcome, ThreadTask
from repro.gpu.spec import GPUSpec
from repro.gpu.transfer import PCIeModel
from repro.storage.catalog import StoreAdapter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backends import ExecutionBackend

#: Phase names used in breakdowns (Figures 5, 12, 17).
PHASE_GENERATION = "generation"
PHASE_EXECUTION = "execution"
PHASE_TRANSFER_IN = "transfer_in"
PHASE_TRANSFER_OUT = "transfer_out"


@dataclass
class ExecutionResult:
    """Outcome of executing one bulk with some strategy."""

    strategy: str
    results: List[TxnResult]
    breakdown: TimeBreakdown
    kernel_reports: List[KernelReport] = field(default_factory=list)
    #: Transactions rolled back because a conflicting predecessor
    #: aborted after writing (TPL cascade, Appendix D).
    cascaded_aborts: List[int] = field(default_factory=list)
    #: Transactions not executed this bulk (streaming K-SET leaves
    #: blocked work in the pool for later bulks, Section 5.3).
    deferred: List["Transaction"] = field(default_factory=list)
    #: Execution backend that actually ran this bulk's kernel waves:
    #: "interpreted", "vectorized", or "mixed" when the vectorized
    #: backend fell back for some waves. The simulated figures are
    #: backend-independent by construction, only wall-clock differs.
    backend: str = "interpreted"
    #: Host wall-clock seconds spent executing the bulk (set by the
    #: engine facade; 0.0 when the executor was driven directly).
    wall_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.breakdown.total

    @property
    def committed(self) -> int:
        return sum(1 for r in self.results if r.committed)

    @property
    def aborted(self) -> int:
        return sum(1 for r in self.results if not r.committed)

    def throughput_tps(self, count_aborts: bool = True) -> float:
        """Transactions per second of this bulk execution."""
        n = len(self.results) if count_aborts else self.committed
        seconds = self.seconds
        return n / seconds if seconds > 0 else 0.0

    @property
    def throughput_ktps(self) -> float:
        """The paper's unit: thousands of transactions per second."""
        return self.throughput_tps() / 1e3


class StrategyExecutor:
    """Base class: strategy-independent plumbing."""

    name = "base"

    def __init__(
        self,
        registry: ProcedureRegistry,
        adapter: StoreAdapter,
        engine: SIMTEngine,
        *,
        primitives: Optional[PrimitiveLibrary] = None,
        pcie: Optional[PCIeModel] = None,
        use_undo_logging: bool = True,
        backend: Optional["ExecutionBackend"] = None,
    ) -> None:
        from repro.core.backends import InterpretedBackend

        self.registry = registry
        self.adapter = adapter
        self.engine = engine
        self.primitives = primitives or PrimitiveLibrary(engine.spec)
        self.pcie = pcie or PCIeModel(engine.spec)
        self.use_undo_logging = use_undo_logging
        #: How waves execute on the host (see repro.core.backends).
        #: K-SET, PART and TPL route their kernel launches through it;
        #: ad-hoc and relaxed TPL launch on the SIMT engine directly
        #: (only the interpreter models serial-core execution and
        #: basic spin locks).
        self.backend = backend or InterpretedBackend()

    # ------------------------------------------------------------------
    # To be provided by strategies.
    # ------------------------------------------------------------------
    def execute(self, transactions: Sequence[Transaction]) -> ExecutionResult:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------
    def _needs_undo(self, txn: Transaction) -> bool:
        return self.use_undo_logging and self.registry.needs_undo(txn.type_name)

    def build_task(self, txn: Transaction) -> ThreadTask:
        """One transaction -> one GPU thread."""
        return ThreadTask(
            txn_id=txn.txn_id,
            type_id=self.registry.type_id(txn.type_name),
            body=self.registry.build_stream(txn.type_name, txn.params),
            capture_undo=self._needs_undo(txn),
        )

    def input_transfer_seconds(self, transactions: Sequence[Transaction]) -> float:
        """Copy the bulk's signatures host -> device."""
        nbytes = sum(map(Transaction.signature_bytes, transactions))
        return self.pcie.to_device(nbytes, component="input")

    def output_transfer_seconds(self, results: Sequence[TxnResult]) -> float:
        """Copy the bulk's results device -> host."""
        nbytes = sum(map(TxnResult.result_bytes, results))
        return self.pcie.to_host(nbytes, component="output")

    def rollback_outcome(self, outcome: ThreadOutcome) -> None:
        """Undo one aborted transaction's effects (reverse log order)."""
        for entry in reversed(outcome.undo):
            table, column, row, old = entry
            if table == "__insert__":
                self.adapter.cancel_insert(column, row)
            elif table == "__delete__":
                self.adapter.cancel_delete(column, row)
            else:
                self.adapter.write(table, column, row, old)

    def finalize_kernel(
        self,
        transactions: Sequence[Transaction],
        report: KernelReport,
        *,
        rollback_aborted: bool = True,
    ) -> List[TxnResult]:
        """Roll back aborts, apply the insert/delete batch, build results."""
        by_id: Dict[int, Transaction] = {t.txn_id: t for t in transactions}
        results: List[TxnResult] = []
        append = results.append
        for outcome in report.outcomes:
            txn = by_id[outcome.txn_id]
            if not outcome.committed and rollback_aborted and outcome.undo:
                self.rollback_outcome(outcome)
            append(
                TxnResult(
                    outcome.txn_id,
                    txn.type_name,
                    outcome.committed,
                    outcome.abort_reason,
                    outcome.result,
                )
            )
        self.adapter.apply_batch()
        return results
