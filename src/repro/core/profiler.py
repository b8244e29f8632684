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
so profiling costs one pipeline run, charged in ``gen_seconds``. By
default ``d`` is the pipeline's max rank -- a fast lower bound of the
exact depth (see the documented deviation in docs/ARCHITECTURE.md); pass
``exact_depth=True`` to compute the true longest path from the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.kset import compute_ranks
from repro.core.procedure import ProcedureRegistry
from repro.core.tdg import TDependencyGraph
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

    @property
    def parallel_fraction(self) -> float:
        """Share of the bulk immediately executable without locks."""
        return self.w0 / self.size if self.size else 0.0

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
        exact_depth: bool = False,
    ) -> BulkProfile:
        if not transactions:
            return BulkProfile(0, 0, 0, 0, 0.0)
        access_lists = [
            (t.txn_id, self.registry.get(t.type_name).accesses(t.params))
            for t in transactions
        ]
        ranks = compute_ranks(access_lists, self.primitives)
        if exact_depth:
            depth = TDependencyGraph.build(access_lists).depth()
        else:
            depth = ranks.max_depth()
        cross = 0
        for txn in transactions:
            txn_type = self.registry.get(txn.type_name)
            if txn_type.partition_of(txn.params) is None:
                cross += 1
        return BulkProfile(
            size=len(transactions),
            w0=len(ranks.zero_set()),
            depth=depth,
            cross_partition=cross,
            gen_seconds=ranks.gen_seconds,
        )
