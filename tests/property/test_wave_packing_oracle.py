"""Linear wave packing places every transaction where the all-waves
scan did.

``ClusterTx._segment_packed`` keeps, per kind and per shard, only the
youngest wave touching that shard. The oracle is the scan it replaced:
for every transaction, look at every wave built so far. Both must
produce the same waves, wave for wave, on any bulk.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterTx
from repro.core.txn import Transaction

from tests.conftest import BANK_PROCEDURES, build_bank_db


def oracle_segment_packed(transactions, shard_map):
    """The quadratic packing, as it stood before it went linear."""
    waves = []
    touched = []
    for txn in transactions:
        shards = shard_map[txn.txn_id]
        kind = "coordinator" if len(shards) > 1 else "parallel"
        earliest = 0
        for index, (wave_kind, _wave_txns) in enumerate(waves):
            if touched[index] & shards:
                earliest = max(
                    earliest,
                    index if wave_kind == kind else index + 1,
                )
        for index in range(earliest, len(waves)):
            if waves[index][0] == kind:
                waves[index][1].append(txn)
                touched[index] |= shards
                break
        else:
            waves.append((kind, [txn]))
            touched.append(set(shards))
    return waves


@pytest.fixture(scope="module")
def cluster():
    return ClusterTx(
        build_bank_db(8), procedures=BANK_PROCEDURES, n_shards=2
    )


def bulk(shard_sets):
    txns = [Transaction(i, "deposit", (0, 1)) for i in range(len(shard_sets))]
    return txns, {i: frozenset(s) for i, s in enumerate(shard_sets)}


def assert_same_waves(cluster, shard_sets):
    txns, shard_map = bulk(shard_sets)
    got = cluster._segment_packed(txns, shard_map)
    want = oracle_segment_packed(txns, shard_map)
    assert [(k, [t.txn_id for t in w]) for k, w in got] == [
        (k, [t.txn_id for t in w]) for k, w in want
    ]


def generated(n, n_shards, cross_share, seed):
    rng = random.Random(seed)
    sets = []
    for _ in range(n):
        if rng.random() < cross_share:
            width = rng.randint(2, max(2, min(n_shards, 4)))
            sets.append(rng.sample(range(n_shards), min(width, n_shards)))
        else:
            sets.append([rng.randrange(n_shards)])
    return sets


@given(
    st.integers(0, 120),
    st.integers(1, 9),
    st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    st.integers(0, 10_000),
)
@settings(max_examples=300, deadline=None)
def test_generated_bulks(cluster, n, n_shards, cross_share, seed):
    assert_same_waves(cluster, generated(n, n_shards, cross_share, seed))


@given(
    st.lists(
        st.lists(st.integers(0, 5), max_size=4, unique=True), max_size=60
    )
)
@settings(max_examples=300, deadline=None)
def test_arbitrary_shard_sets_including_shardless(cluster, shard_sets):
    assert_same_waves(cluster, shard_sets)


@pytest.mark.parametrize(
    "shard_sets",
    [
        [],
        [[k % 4] for k in range(40)],                      # all parallel
        [[k % 4, (k + 1) % 4] for k in range(40)],         # all coordinator
        [[0] if k % 2 else [0, 1] for k in range(40)],     # alternating
        [[k % 3] if k % 2 else [3, 4] for k in range(40)],  # disjoint kinds
        [[0, 1], [2], [2, 3], [0], [1], [0, 3], [2]],
    ],
)
def test_named_shapes(cluster, shard_sets):
    assert_same_waves(cluster, shard_sets)


def test_all_parallel_bulk_is_one_wave(cluster):
    txns, shard_map = bulk([[k % 4] for k in range(40)])
    ((kind, wave),) = cluster._segment_packed(txns, shard_map)
    assert kind == "parallel" and wave == txns
