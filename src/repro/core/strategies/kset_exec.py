"""K-SET: 0-set based bulk execution (Section 5.3).

The strategy designed *for* the bulk execution model: iteratively pick
the current 0-set of the T-dependency graph -- the transactions with no
preceding conflicting transaction -- and execute it as one kernel with
no concurrency control at all (Property 1: members of a k-set are
pairwise conflict-free). After removing an executed 0-set, the old
1-set becomes the new 0-set, and so on.

Bulk generation uses the incremental extractor of Section 5.3, seeded
with the bulk's sorted operation array (merging it into the item groups
is one sort, charged here), and each round's 0-set is charged as one
scan of the remaining entries, not a recomputation of all k-sets (the
host extractor touches only what the round peels and exposes).

Because a round's transactions are mutually conflict-free, an abort can
only affect the aborting transaction itself (Appendix D): rollback is
its own undo log, applied post-kernel. The insert/delete batch is
applied after every round so later rounds observe earlier rounds'
mutations.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core.executor import (
    PHASE_EXECUTION,
    PHASE_GENERATION,
    PHASE_TRANSFER_IN,
    PHASE_TRANSFER_OUT,
    ExecutionResult,
    StrategyExecutor,
)
from repro.core.kset import IncrementalKSetExtractor
from repro.core.oparray import OpArray
from repro.core.txn import ResultColumns, Transaction
from repro.gpu.costmodel import TimeBreakdown


class KsetExecutor(StrategyExecutor):
    """Iterative 0-set execution without locks."""

    name = "kset"
    #: With the timestamp constraint, merging a fresh bulk into the
    #: sorted groups costs a sort (Figure 5's dominant share); the
    #: relaxed variant (Appendix G) groups by counters instead.
    timestamp_constrained = True

    def __init__(self, *args, grouping_passes: int = 0,
                 max_rounds: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.grouping_passes = grouping_passes
        #: Streaming mode (Section 5.3): execute at most this many
        #: 0-set rounds per bulk, deferring blocked transactions back to
        #: the pool where they merge with newly submitted work. None =
        #: drain the bulk completely.
        self.max_rounds = max_rounds

    def execute(
        self, transactions: Sequence[Transaction], ops: OpArray
    ) -> ExecutionResult:
        breakdown = TimeBreakdown()
        if not transactions:
            return ExecutionResult(self.name, ResultColumns(), breakdown)
        breakdown.add(
            PHASE_TRANSFER_IN, self.input_transfer_seconds(transactions)
        )

        # ---- bulk generation: merge ops into sorted groups -------------
        by_id: Dict[int, Transaction] = {t.txn_id: t for t in transactions}
        extractor = IncrementalKSetExtractor(ops, self.primitives)
        gen_before = extractor.gen_seconds
        if self.timestamp_constrained:
            # The sort merges the bulk's entries into the item groups.
            breakdown.add(
                PHASE_GENERATION,
                self.primitives.sort_cost(max(1, len(ops.item))),
            )
        else:
            breakdown.add(
                PHASE_GENERATION,
                self.primitives.map_cost(max(1, int(ops.op_counts.sum())))
                + self.primitives.scan_cost(max(1, len(transactions))),
            )

        # ---- iterate 0-sets ---------------------------------------------
        all_results = ResultColumns()
        reports = []
        rounds = 0
        while len(extractor):
            if self.max_rounds is not None and rounds >= self.max_rounds:
                break
            rounds += 1
            zero = extractor.pop_zero_set()
            breakdown.add(PHASE_GENERATION, extractor.gen_seconds - gen_before)
            gen_before = extractor.gen_seconds
            round_txns = [by_id[t] for t in zero]
            if self.grouping_passes > 0:
                round_txns, group_cost = self.group_by_type(
                    round_txns, self.grouping_passes
                )
                breakdown.add(PHASE_GENERATION, group_cost)
            # The wave executes through the configured backend: the
            # interpreter steps one generator per thread; the
            # vectorized backend runs the whole 0-set as batched
            # column kernels with an identical simulated cost.
            report = self.backend.launch_wave(self, round_txns)
            reports.append(report)
            breakdown.add(PHASE_EXECUTION, report.seconds)
            all_results.extend(self.finalize_kernel(round_txns, report))

        all_results = all_results.sorted_by_id()
        breakdown.add(
            PHASE_TRANSFER_OUT, self.output_transfer_seconds(all_results)
        )
        deferred = [by_id[t] for t in extractor.pending]
        return ExecutionResult(
            self.name, all_results, breakdown, kernel_reports=reports,
            deferred=deferred,
        )
