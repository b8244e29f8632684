"""Unit tests for the sort-based rank pipeline and incremental 0-sets."""

import pytest

from repro.core.kset import IncrementalKSetExtractor, compute_ranks
from repro.core.oparray import OpArray
from repro.core.procedure import Access
from repro.core.tdg import TDependencyGraph
from repro.errors import ExecutionError

X = 0  # the one item of the extractor tests


def R(item):
    return Access(item, write=False)


def W(item):
    return Access(item, write=True)


def ops_of(*txns):
    """ops_of((id, [accesses]), ...) -- the bulk's operation array."""
    return OpArray.from_accesses(txns)


PAPER_EXAMPLE = ops_of(
    (1, [R(0), R(1), W(0), W(1)]),   # T1: Ra Rb Wa Wb
    (2, [R(0)]),                      # T2: Ra
    (3, [R(0), R(1)]),                # T3: Ra Rb
    (4, [R(2), W(2), R(0), W(0)]),    # T4: Rc Wc Ra Wa
)


class TestMergeAccesses:
    def test_write_dominates(self):
        ops = ops_of((7, [R(0), W(0), R(0)]))
        assert ops.item.tolist() == [0]
        assert ops.txn.tolist() == [7]
        assert ops.write.tolist() == [True]
        assert ops.op_counts.tolist() == [3]

    def test_one_entry_per_item_txn(self):
        # T1:(a,b) T2:(a) T3:(a,b) T4:(c,a), sorted by (item, txn).
        assert PAPER_EXAMPLE.item.tolist() == [0, 0, 0, 0, 1, 1, 2]
        assert PAPER_EXAMPLE.txn.tolist() == [1, 2, 3, 4, 1, 3, 4]


class TestComputeRanks:
    def test_paper_example_ranks(self):
        """Figure 1(b): ranks 0,1,1,2 in group a; 0,1 in group b; 0 in c."""
        result = compute_ranks(PAPER_EXAMPLE)
        ranks = {
            (int(i), int(t)): int(r)
            for i, t, r in zip(
                PAPER_EXAMPLE.item, PAPER_EXAMPLE.txn, result.entry_rank
            )
        }
        assert ranks[(0, 1)] == 0 and ranks[(0, 2)] == 1
        assert ranks[(0, 3)] == 1 and ranks[(0, 4)] == 2
        assert ranks[(1, 1)] == 0 and ranks[(1, 3)] == 1
        assert ranks[(2, 4)] == 0

    def test_paper_example_depths(self):
        result = compute_ranks(PAPER_EXAMPLE)
        depths = dict(zip(result.txn_ids.tolist(), result.depths.tolist()))
        assert depths == {1: 0, 2: 1, 3: 1, 4: 2}
        assert result.zero_set() == [1]
        assert result.max_depth() == 2

    def test_zero_set_matches_tdg_sources(self):
        result = compute_ranks(PAPER_EXAMPLE)
        graph = TDependencyGraph.build(PAPER_EXAMPLE)
        assert result.zero_set() == graph.sources()

    def test_documented_deviation_rank_below_depth(self):
        """Ranks do not propagate across items (see docs/ARCHITECTURE.md)."""
        txns = ops_of(
            (1, [W(0)]),
            (2, [R(0), W(1)]),
            (3, [R(1)]),
        )
        result = compute_ranks(txns)
        graph = TDependencyGraph.build(txns)
        assert result.depth_of(3) == 1          # pipeline rank
        assert graph.depths()[3] == 2           # true depth
        # The 0-set is exact nonetheless.
        assert result.zero_set() == graph.sources() == [1]

    def test_empty_input(self):
        result = compute_ranks(ops_of())
        assert result.zero_set() == []
        assert result.max_depth() == 0
        assert result.gen_seconds == 0.0

    def test_generation_cost_positive(self):
        assert compute_ranks(PAPER_EXAMPLE).gen_seconds > 0

    def test_unknown_txn_depth_raises(self):
        with pytest.raises(ExecutionError):
            compute_ranks(PAPER_EXAMPLE).depth_of(99)

    def test_lock_keys_and_reader_runs(self):
        result = compute_ranks(PAPER_EXAMPLE)
        t2, t4 = result.lock_plans(PAPER_EXAMPLE, [2, 4])
        # T2's read of a: lock 0, key 1, shared; T4 locks a then c,
        # its write of a: key 2, exclusive.
        assert t2 == [(0, 1, True)]
        assert t4 == [(0, 2, False), (2, 0, False)]
        # Readers T2, T3 share rank 1 on item a; T3 alone reads b.
        assert result.reader_runs(PAPER_EXAMPLE) == [(0, 1, 2), (1, 1, 1)]


class TestIncrementalExtractor:
    def test_rounds_match_iterative_tdg_peeling(self):
        extractor = IncrementalKSetExtractor(PAPER_EXAMPLE)
        assert extractor.pop_zero_set() == [1]
        assert extractor.pop_zero_set() == [2, 3]
        assert extractor.pop_zero_set() == [4]
        assert extractor.pop_zero_set() == []
        assert len(extractor) == 0

    def test_zero_set_is_non_destructive(self):
        extractor = IncrementalKSetExtractor(
            ops_of((1, [W(X)]), (2, [R(X)]))
        )
        assert extractor.zero_set() == [1]
        assert extractor.zero_set() == [1]
        assert len(extractor) == 2

    def test_leading_readers_all_in_zero_set(self):
        extractor = IncrementalKSetExtractor(
            ops_of((1, [R(X)]), (2, [R(X)]), (3, [W(X)]))
        )
        assert extractor.zero_set() == [1, 2]

    def test_writer_first_blocks_everyone(self):
        extractor = IncrementalKSetExtractor(
            ops_of((1, [W(X)]), (2, [R(X)]), (3, [W(X)]))
        )
        assert extractor.zero_set() == [1]

    def test_out_of_order_add_rejected(self):
        with pytest.raises(ExecutionError):
            ops_of((5, [W(X)]), (4, [W(X)]))

    def test_no_access_txn_always_ready(self):
        extractor = IncrementalKSetExtractor(
            ops_of((1, [W(X)]), (2, []), (3, [W(X)]))
        )
        assert extractor.zero_set() == [1, 2]
