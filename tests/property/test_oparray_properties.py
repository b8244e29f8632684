"""The operation array against its references.

Random bulks of declared access lists -- duplicate items, read/write
mixes, empty access sets, ``None`` partitions -- built through the
production entry point (``OpArray.of_bulk`` over a registered type),
then every reader of the array is compared with a reference that never
touches it:

* 0-set rounds, ranks, lock plans and reader-run sizes against a
  :class:`TDependencyGraph` fed the test's own write-dominates merge,
  and a direct walk of each item's timestamp-ordered access list;
* conflict groups against brute-force components of the pairwise
  conflict relation;
* per-bulk shard sets against the scalar ``ShardRouter.shards_of``;
* ``select()`` of the sorted array against building the array from
  the selected transactions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.cluster.coordinator import CrossShardCoordinator
from repro.cluster.router import HashShardRouter, RangeShardRouter
from repro.core.kset import IncrementalKSetExtractor, compute_ranks
from repro.core.oparray import OpArray
from repro.core.procedure import Access, ProcedureRegistry, TransactionType
from repro.core.tdg import TDependencyGraph
from repro.core.txn import Transaction
from repro.storage.catalog import StoreAdapter

from tests.conftest import build_bank_db

N_ITEMS = 8

#: One stored-procedure type whose declaration *is* its parameters:
#: ``params = (((item, write), ...), partition)``.
DECLARED = TransactionType(
    name="declared",
    body=lambda *params: iter(()),
    access_fn=lambda p: [Access(item, write) for item, write in p[0]],
    partition_fn=lambda p: p[1],
)
REGISTRY = ProcedureRegistry()
REGISTRY.register(DECLARED)
ROUTERS = [HashShardRouter(3), RangeShardRouter(3, N_ITEMS)]
COORDINATOR = CrossShardCoordinator(
    REGISTRY, [StoreAdapter(build_bank_db(1)) for _ in range(3)], ROUTERS[0]
)

declarations = st.tuples(
    st.lists(
        st.tuples(st.integers(0, N_ITEMS - 1), st.booleans()),
        max_size=5,
    ).map(tuple),
    st.one_of(st.none(), st.integers(0, N_ITEMS - 1)),
)


@st.composite
def bulks(draw):
    """Transactions with strictly increasing, gappy ids."""
    params = draw(st.lists(declarations, min_size=1, max_size=24))
    gaps = draw(
        st.lists(st.integers(1, 3), min_size=len(params), max_size=len(params))
    )
    ids = np.cumsum(gaps).tolist()
    return [Transaction(i, "declared", p) for i, p in zip(ids, params)]


def reference(transactions):
    """Merged access maps, the TDG over them, and per-entry ranks --
    none of it read from an OpArray."""
    merged = {}
    for txn in transactions:
        per_item = {}
        for item, write in txn.params[0]:
            per_item[item] = per_item.get(item, False) or write
        merged[txn.txn_id] = per_item
    graph = TDependencyGraph()
    for txn_id, per_item in merged.items():
        graph.add_transaction(txn_id, per_item)
    rank = {}
    for item in range(N_ITEMS):
        previous = None
        for txn_id, per_item in merged.items():
            if item not in per_item:
                continue
            wrote = per_item[item]
            if previous is None:
                r = 0
            else:
                r = previous[0] + (1 if wrote or previous[1] else 0)
            rank[(item, txn_id)] = r
            previous = (r, wrote)
    return merged, graph, rank


@given(bulks())
@settings(max_examples=150, deadline=None)
def test_zero_sets_and_ranks_match_the_graph(transactions):
    merged, graph, rank = reference(transactions)
    ops = OpArray.of_bulk(REGISTRY, transactions)
    assert ops.op_counts.tolist() == [len(t.params[0]) for t in transactions]

    extractor = IncrementalKSetExtractor(ops)
    rounds = []
    while len(extractor):
        rounds.append(extractor.pop_zero_set())
    k_sets = graph.k_sets()
    assert rounds == [k_sets[k] for k in sorted(k_sets)]

    ranks = compute_ranks(ops)
    got = {
        (item, txn): r
        for item, txn, r in zip(
            ops.item.tolist(),
            ops.txn.tolist(),
            ranks.entry_rank.tolist(),
        )
    }
    assert got == rank
    # Access-free transactions have no entry, hence no rank.
    assert ranks.zero_set() == [t for t in graph.sources() if merged[t]]


@given(bulks())
@settings(max_examples=150, deadline=None)
def test_lock_plans_and_reader_runs_match_the_ranks(transactions):
    merged, _graph, rank = reference(transactions)
    ops = OpArray.of_bulk(REGISTRY, transactions)
    ranks = compute_ranks(ops)
    lock_of = {
        item: lock
        for lock, item in enumerate(
            sorted({i for per_item in merged.values() for i in per_item})
        )
    }
    assert ranks.n_groups == len(lock_of)
    # Ask in reverse order: plans align with the ids asked for.
    txn_ids = [t.txn_id for t in reversed(transactions)]
    assert ranks.lock_plans(ops, txn_ids) == [
        [
            (lock_of[item], rank[(item, txn_id)], not merged[txn_id][item])
            for item in sorted(merged[txn_id])
        ]
        for txn_id in txn_ids
    ]
    runs = {}
    for txn_id, per_item in merged.items():
        for item, wrote in per_item.items():
            if not wrote:
                key = (lock_of[item], rank[(item, txn_id)])
                runs[key] = runs.get(key, 0) + 1
    assert sorted(ranks.reader_runs(ops)) == sorted(
        (lock, key, size) for (lock, key), size in runs.items()
    )


@given(bulks())
@settings(max_examples=100, deadline=None)
def test_conflict_groups_are_the_conflict_components(transactions):
    _merged, graph, _rank = reference(transactions)
    ops = OpArray.of_bulk(REGISTRY, transactions)
    groups = COORDINATOR.conflict_groups(transactions, ops)
    ids = [t.txn_id for t in transactions]
    component = {t: {t} for t in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if graph.conflicting(a, b) and component[a] is not component[b]:
                component[a] |= component[b]
                for member in component[b]:
                    component[member] = component[a]
    expected = sorted({tuple(sorted(c)) for c in component.values()})
    assert [[t.txn_id for t in group] for group in groups] == [
        list(c) for c in expected
    ]


@given(bulks())
@settings(max_examples=100, deadline=None)
def test_shard_map_matches_scalar_routing(transactions):
    ops = OpArray.of_bulk(REGISTRY, transactions)
    for router in ROUTERS:
        assert router.shard_map(ops) == {
            t.txn_id: router.shards_of(DECLARED, t.params)
            for t in transactions
        }


@given(bulks(), st.data())
@settings(max_examples=150, deadline=None)
def test_select_equals_building_from_the_selection(transactions, data):
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(transactions),
                 max_size=len(transactions))
    )
    chosen = [t for t, k in zip(transactions, keep) if k]
    sliced = OpArray.of_bulk(REGISTRY, transactions).select(
        [t.txn_id for t in chosen]
    )
    built = OpArray.of_bulk(REGISTRY, chosen)
    for column in ("txn_ids", "partition", "op_counts", "item", "txn",
                   "write"):
        assert getattr(sliced, column).tolist() == getattr(
            built, column
        ).tolist(), column
