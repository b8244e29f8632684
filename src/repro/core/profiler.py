"""Bulk profiler: the structural indicators of Appendix D.

Before choosing an execution strategy, GPUTx profiles the candidate
bulk's T-dependency structure:

* ``d`` -- the depth of the T-dependency graph (critical-path length of
  the bulk execution);
* ``w0`` -- the size of the 0-set (available parallelism: K-SET can
  launch this many lock-free threads immediately);
* ``c`` -- the number of cross-partition transactions (vertices with
  more than one predecessor / transactions PART cannot place).

``d`` and ``w0`` come from the sort-based rank pipeline (Section 4.2)
so profiling costs one pipeline run, charged in ``gen_seconds``; ``c``
is counted off the operation array's partition column. ``d`` is the
pipeline's max rank -- a fast lower bound of the exact depth
``TDependencyGraph.depth()`` (see docs/ARCHITECTURE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.kset import compute_ranks
from repro.core.oparray import NO_PARTITION, OpArray
from repro.core.procedure import ProcedureRegistry
from repro.core.txn import Transaction
from repro.gpu.primitives import PrimitiveLibrary


@dataclass(frozen=True)
class BulkProfile:
    """Structural summary of one candidate bulk."""

    size: int
    w0: int
    depth: int
    cross_partition: int
    gen_seconds: float

    def predicted_strategy(self, thresholds=None) -> str:
        """The strategy Algorithm 1 would choose for this profile.

        Lets callers that profile *candidate* bulks (the online bulk
        former sizing the next cut) consult the chooser without
        constructing an engine. Imported lazily: the chooser module
        depends on this one.
        """
        from repro.core.chooser import choose_strategy

        return choose_strategy(self, thresholds)


class BulkProfiler:
    """Computes :class:`BulkProfile` for candidate bulks."""

    def __init__(
        self,
        registry: ProcedureRegistry,
        primitives: Optional[PrimitiveLibrary] = None,
    ) -> None:
        self.registry = registry
        self.primitives = primitives or PrimitiveLibrary()

    def profile(
        self,
        transactions: Sequence[Transaction],
        ops: Optional[OpArray] = None,
    ) -> BulkProfile:
        """``ops`` is the bulk's operation array, if already built."""
        if not transactions:
            return BulkProfile(0, 0, 0, 0, 0.0)
        if ops is None:
            ops = OpArray.of_bulk(self.registry, transactions)
        ranks = compute_ranks(ops, self.primitives)
        return BulkProfile(
            size=len(transactions),
            w0=int((ranks.depths == 0).sum()),
            depth=ranks.max_depth(),
            cross_partition=int((ops.partition == NO_PARTITION).sum()),
            gen_seconds=ranks.gen_seconds,
        )
