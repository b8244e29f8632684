"""The execution-backend contract and the interpreted backend.

The strategies of :mod:`repro.core.strategies` decide *what* runs in
each kernel launch (which transactions form a wave, in which order);
an execution backend decides *how* the wave's kernel actually executes
on the host:

* ``interpreted`` -- the original path: one Python generator per GPU
  thread, stepped op-by-op in warp lockstep by
  :class:`~repro.gpu.simt.SIMTEngine`. Fully general (either lock
  flavour, including the basic 0/1 spin lock; undo logging) but pays
  Python interpreter cost per op per thread.
  :class:`InterpretedBackend`'s three ``launch_*`` methods are the
  contract every backend meets.
* ``vectorized`` -- the whole wave's same-procedure transactions
  execute as batched NumPy column kernels (gather -> compute ->
  conflict-masked scatter) against the column store, and the kernel's
  simulated cost is reproduced *exactly* by a vectorized replay of the
  SIMT cost accounting (:mod:`repro.core.backends.replay`). It runs
  every launch it is given; a type without a vector form runs one
  lane at a time through its op stream.

Both backends produce byte-identical outcomes, final states, and
simulated-clock figures; only wall-clock time differs. Backends are
selected via :class:`~repro.core.backends.EngineOptions`
(``GPUTx(..., options=...)``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.core.txn import ResultColumns, TransactionColumns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import StrategyExecutor
    from repro.gpu.simt import KernelReport


class InterpretedBackend:
    """How a strategy's kernel launches execute on the host: here, the
    original generator-per-thread SIMT interpreter path."""

    name = "interpreted"

    def __init__(self) -> None:
        #: Host wall-clock seconds spent inside kernel launches (the
        #: phase a backend owns; bulk generation and transfer
        #: accounting are shared code outside it). Benchmarks read
        #: this to compare backends on exactly the replaced path.
        self.wall_launch_seconds = 0.0

    def launch_wave(
        self,
        executor: "StrategyExecutor",
        transactions: TransactionColumns,
    ) -> "KernelReport":
        """Execute one conflict-free wave (one thread per transaction).

        Used by K-SET (each 0-set round is one wave). Every backend
        returns the report :meth:`SIMTEngine.launch` produces here for
        ``executor.build_task``-built tasks in order.
        """
        start = time.perf_counter()
        tasks = executor.build_tasks(transactions)
        report = executor.engine.launch(tasks, executor.adapter)
        self.wall_launch_seconds += time.perf_counter() - start
        return report

    def launch_partitions(
        self,
        executor: "StrategyExecutor",
        parts: Sequence[Tuple[int, Sequence[int]]],
        boundary_cycles: int,
        transactions: TransactionColumns,
    ) -> Tuple["KernelReport", ResultColumns]:
        """Execute PART's per-partition serial threads as one kernel.

        ``parts`` is the sorted ``(partition id, positions)`` list, the
        positions indexing ``transactions`` in timestamp order; each
        partition is one GPU thread running its transactions back to
        back (the pull model of Section 5.2). Returns the launch's
        report -- one outcome row per partition thread -- and its
        transactions' outcomes as one flat record (here, each thread's
        :class:`ResultColumns` return value, concatenated).
        """
        start = time.perf_counter()
        tasks = [
            executor.partition_task(
                pid, transactions.take(positions), boundary_cycles
            )
            for pid, positions in parts
        ]
        report = executor.engine.launch(tasks, executor.adapter)
        self.wall_launch_seconds += time.perf_counter() - start
        return report, ResultColumns.concat(report.outcomes.result)

    def launch_locked(
        self,
        executor: "StrategyExecutor",
        transactions: TransactionColumns,
        plans: Sequence[List[Tuple[int, int, bool]]],
        locks,
    ) -> "KernelReport":
        """Execute one TPL bulk (one thread per transaction, counter
        locks).

        ``plans`` aligns with ``transactions``: each entry is the
        thread's lock plan ``[(lock_id, key, shared), ...]`` in merged
        item order (both locking phases walk it). ``locks`` is the
        pre-seeded :class:`~repro.gpu.atomics.LockTable`. Every backend
        returns the report of launching ``executor.locked_task``-built
        tasks on the interpreter, as done here.
        """
        start = time.perf_counter()
        tasks = list(map(
            executor.locked_task, transactions.txn_id,
            transactions.type_name, transactions.params, plans,
        ))
        report = executor.engine.launch(tasks, executor.adapter, locks=locks)
        self.wall_launch_seconds += time.perf_counter() - start
        return report

    def bulk_path(self) -> str:
        """Which path ran the launches since the previous call:
        ``"interpreted"`` or ``"vectorized"``.

        The engine calls it around each bulk to fill
        ``ExecutionResult.backend``.
        A bulk that launched nothing through the backend (ad-hoc,
        relaxed TPL, an empty 0-set) reads as interpreted.
        """
        return "interpreted"
