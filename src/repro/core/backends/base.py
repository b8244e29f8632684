"""Execution-backend registry and engine-level options.

The strategies of :mod:`repro.core.strategies` decide *what* runs in
each kernel launch (which transactions form a wave, in which order);
an :class:`ExecutionBackend` decides *how* the wave's kernel actually
executes on the host:

* ``interpreted`` -- the original path: one Python generator per GPU
  thread, stepped op-by-op in warp lockstep by
  :class:`~repro.gpu.simt.SIMTEngine`. Fully general (locks, atomics,
  undo logging) but pays Python interpreter cost per op per thread.
* ``vectorized`` -- the whole wave's same-procedure transactions
  execute as batched NumPy column kernels (gather -> compute ->
  conflict-masked scatter) against the column store, and the kernel's
  simulated cost is reproduced *exactly* by a vectorized replay of the
  SIMT cost accounting (:mod:`repro.core.backends.replay`). Falls back
  to the interpreter per wave when a transaction type has no vector
  form or the wave needs features only the interpreter models.

Both backends produce byte-identical outcomes, final states, and
simulated-clock figures; only wall-clock time differs. Backends are
selected via :class:`EngineOptions` (``GPUTx(..., options=...)``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import StrategyExecutor
    from repro.core.txn import Transaction
    from repro.gpu.simt import KernelReport


class ExecutionBackend:
    """How a strategy's kernel launches execute on the host."""

    name = "base"

    def __init__(self) -> None:
        #: Host wall-clock seconds spent inside kernel launches (the
        #: phase a backend owns; bulk generation and transfer
        #: accounting are shared code outside it). Benchmarks read
        #: this to compare backends on exactly the replaced path.
        self.wall_launch_seconds = 0.0

    def launch_wave(
        self,
        executor: "StrategyExecutor",
        transactions: Sequence["Transaction"],
    ) -> "KernelReport":
        """Execute one conflict-free wave (one thread per transaction).

        Used by K-SET (each 0-set round is one wave). Must return a
        report identical to what :meth:`SIMTEngine.launch` would have
        produced for ``executor.build_task``-built tasks in order.
        """
        raise NotImplementedError

    def launch_partitions(
        self,
        executor,
        parts: Sequence[Tuple[int, List["Transaction"]]],
        boundary_cycles: int,
    ) -> "KernelReport":
        """Execute PART's per-partition serial threads as one kernel.

        ``parts`` is the sorted ``(partition id, transactions)`` list;
        each partition is one GPU thread running its transactions back
        to back (the pull model of Section 5.2).
        """
        raise NotImplementedError

    def launch_locked(
        self,
        executor,
        transactions: Sequence["Transaction"],
        plans: Sequence[List[Tuple[int, int, bool]]],
        locks,
    ) -> "KernelReport":
        """Execute one TPL bulk (one thread per transaction, counter
        locks).

        ``plans`` aligns with ``transactions``: each entry is the
        thread's lock plan ``[(lock_id, key, shared), ...]`` in merged
        item order (both locking phases walk it). ``locks`` is the
        pre-seeded :class:`~repro.gpu.atomics.LockTable`. Must return
        a report identical to launching
        ``executor.locked_task``-built tasks on the interpreter.
        """
        raise NotImplementedError

    def bulk_path(self) -> str:
        """Which path ran the launches since the previous call.

        ``"interpreted"``, ``"vectorized"``, or ``"mixed"`` when a
        vectorizing backend fell back for some of them; the engine
        calls it around each bulk to fill ``ExecutionResult.backend``.
        A bulk that launched nothing through the backend (ad-hoc,
        relaxed TPL, an empty 0-set) reads as interpreted.
        """
        return "interpreted"


class InterpretedBackend(ExecutionBackend):
    """The original generator-per-thread SIMT interpreter path."""

    name = "interpreted"

    def launch_wave(self, executor, transactions):
        start = time.perf_counter()
        tasks = [executor.build_task(t) for t in transactions]
        report = executor.engine.launch(tasks, executor.adapter)
        self.wall_launch_seconds += time.perf_counter() - start
        return report

    def launch_partitions(self, executor, parts, boundary_cycles):
        start = time.perf_counter()
        tasks = [
            executor.partition_task(pid, txns, boundary_cycles)
            for pid, txns in parts
        ]
        report = executor.engine.launch(tasks, executor.adapter)
        self.wall_launch_seconds += time.perf_counter() - start
        return report

    def launch_locked(self, executor, transactions, plans, locks):
        start = time.perf_counter()
        tasks = [
            executor.locked_task(txn, plan)
            for txn, plan in zip(transactions, plans)
        ]
        report = executor.engine.launch(tasks, executor.adapter, locks=locks)
        self.wall_launch_seconds += time.perf_counter() - start
        return report


#: Backend name -> zero-config factory.
_BACKENDS: Dict[str, Callable[["EngineOptions"], ExecutionBackend]] = {}


def register_backend(
    name: str, factory: Callable[["EngineOptions"], ExecutionBackend]
) -> None:
    """Add a backend to the registry (idempotent re-registration is an
    error: backend names are part of the engine's public contract)."""
    if name in _BACKENDS:
        raise ConfigError(f"backend {name!r} already registered")
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def create_backend(options: "EngineOptions") -> ExecutionBackend:
    """Instantiate the backend ``options`` selects (the name was
    validated when the options were built)."""
    return _BACKENDS[options.backend](options)


def _env_strict_vector() -> bool:
    """The ``REPRO_STRICT_VECTOR`` environment default.

    CI's strict lane exports ``REPRO_STRICT_VECTOR=1`` to turn every
    silent interpreter fallback in the vectorized backend into an
    error; empty, ``0``, and ``false`` (any case) leave it off.
    """
    raw = os.environ.get("REPRO_STRICT_VECTOR", "")
    return raw.strip().lower() not in ("", "0", "false")


@dataclass(frozen=True)
class EngineOptions:
    """Engine-level execution options (strategy-independent).

    ``backend`` selects the execution backend by registry name.
    ``vector_min_wave`` is the smallest wave the vectorized backend
    bothers to vectorize -- below it the per-wave NumPy setup costs
    more wall-clock than interpreting (the simulated clock is
    identical either way). ``strict_vector`` turns the vectorized
    backend's silent per-wave fallback into an error -- for tests and
    benchmarks that must know vectorization actually happened. Its
    default (``None``) resolves from the ``REPRO_STRICT_VECTOR``
    environment variable, so a CI lane can arm strictness repo-wide;
    an explicit ``False`` stays off regardless of the environment.
    """

    backend: str = "interpreted"
    vector_min_wave: int = 1
    strict_vector: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"choose from {available_backends()}"
            )
        if self.vector_min_wave < 1:
            raise ConfigError("vector_min_wave must be >= 1")
        if self.strict_vector is None:
            object.__setattr__(self, "strict_vector", _env_strict_vector())


register_backend("interpreted", lambda options: InterpretedBackend())
