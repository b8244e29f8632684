"""Property-based tests for the T-dependency graph and k-set pipeline.

Random workloads over a small item space, checked against the paper's
stated properties (Section 4.1) and against each other:

* the graph is acyclic and depths are well defined;
* Property 1: members of one k-set are pairwise conflict-free;
* Property 2: every depth-k vertex conflicts with some depth-(k-1)
  vertex;
* the sort-based rank pipeline's 0-set equals the graph's sources, and
  its per-transaction rank never exceeds the true depth;
* iterative 0-set peeling (the K-SET strategy's schedule) enumerates
  every transaction exactly once, in a conflict-respecting order.
"""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kset import IncrementalKSetExtractor, compute_ranks
from repro.core.oparray import OpArray
from repro.core.procedure import Access
from repro.core.tdg import TDependencyGraph

# A transaction's access set: 1-4 accesses over items 0..7.
access_sets = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.booleans()),
    min_size=1,
    max_size=4,
).map(lambda pairs: [Access(item, write) for item, write in pairs])

workloads = st.lists(access_sets, min_size=1, max_size=30).map(
    lambda sets: [(i, accesses) for i, accesses in enumerate(sets)]
)


@st.composite
def workload_and_graph(draw):
    txns = draw(workloads)
    return txns, TDependencyGraph.build(OpArray.from_accesses(txns))


@given(workload_and_graph())
@settings(max_examples=150, deadline=None)
def test_graph_is_acyclic_with_total_depths(data):
    txns, graph = data
    depths = graph.depths()  # raises on a cycle
    assert set(depths) == {t for t, _ in txns}


@given(workload_and_graph())
@settings(max_examples=150, deadline=None)
def test_edges_point_forward_in_time(data):
    _txns, graph = data
    for src, dsts in graph.succ.items():
        for dst in dsts:
            assert src < dst


@given(workload_and_graph())
@settings(max_examples=150, deadline=None)
def test_property_1_ksets_conflict_free(data):
    _txns, graph = data
    for members in graph.k_sets().values():
        for i, t1 in enumerate(members):
            for t2 in members[i + 1:]:
                assert not graph.conflicting(t1, t2)


@given(workload_and_graph())
@settings(max_examples=150, deadline=None)
def test_property_2_conflicting_predecessor_exists(data):
    _txns, graph = data
    k_sets = graph.k_sets()
    for depth, members in k_sets.items():
        if depth == 0:
            continue
        for txn in members:
            assert any(
                graph.conflicting(txn, prev) for prev in k_sets[depth - 1]
            ), f"depth-{depth} vertex {txn} has no depth-{depth-1} conflict"


@given(workload_and_graph())
@settings(max_examples=150, deadline=None)
def test_rank_pipeline_zero_set_equals_sources(data):
    txns, graph = data
    ranks = compute_ranks(OpArray.from_accesses(txns))
    assert ranks.zero_set() == graph.sources()


@given(workload_and_graph())
@settings(max_examples=150, deadline=None)
def test_rank_is_lower_bound_of_depth(data):
    txns, graph = data
    ranks = compute_ranks(OpArray.from_accesses(txns))
    depths = graph.depths()
    for txn_id, _ in txns:
        assert ranks.depth_of(txn_id) <= depths[txn_id]


@given(workload_and_graph())
@settings(max_examples=100, deadline=None)
def test_iterative_peeling_respects_conflict_order(data):
    txns, graph = data
    extractor = IncrementalKSetExtractor(OpArray.from_accesses(txns))
    executed: List[int] = []
    seen = set()
    while len(extractor):
        batch = extractor.pop_zero_set()
        assert batch, "peeling must always make progress (DAG)"
        # Within a batch: conflict-free (Property 1 on the fly).
        for i, t1 in enumerate(batch):
            for t2 in batch[i + 1:]:
                assert not graph.conflicting(t1, t2)
        # Conflicting predecessors must already have executed.
        for txn in batch:
            for pred in graph.pred.get(txn, ()):
                assert pred in seen
        executed.extend(batch)
        seen.update(batch)
    assert sorted(executed) == [t for t, _ in txns]


@given(workload_and_graph())
@settings(max_examples=100, deadline=None)
def test_reader_run_sizes_count_shared_ranks(data):
    txns, _graph = data
    ops = OpArray.from_accesses(txns)
    ranks = compute_ranks(ops)
    runs = {(lock, key): size for lock, key, size in ranks.reader_runs(ops)}
    assert len(runs) == len(ranks.reader_runs(ops))
    # Reconstruct counts directly from the entry arrays.
    expected = {}
    for group, write, rank in zip(
        ranks.entry_group, ops.write, ranks.entry_rank
    ):
        if not write:
            key = (int(group), int(rank))
            expected[key] = expected.get(key, 0) + 1
    assert runs == expected


@given(workloads)
@settings(max_examples=100, deadline=None)
def test_lock_keys_strictly_order_writers_per_item(txns):
    ops = OpArray.from_accesses(txns)
    ranks = compute_ranks(ops)
    txn_ids = [txn_id for txn_id, _ in txns]
    per_item = {}
    for txn, plan in zip(txn_ids, ranks.lock_plans(ops, txn_ids)):
        for lock, key, shared in plan:
            per_item.setdefault(lock, []).append((txn, key, shared))
    for item, entries in per_item.items():
        entries.sort()
        writer_keys = [k for _t, k, shared in entries if not shared]
        # Writers of one item never share a counter key.
        assert len(writer_keys) == len(set(writer_keys))
        # Keys are non-decreasing in timestamp order.
        all_keys = [k for _t, k, _s in entries]
        assert all_keys == sorted(all_keys)
