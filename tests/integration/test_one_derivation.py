"""A bulk's declared footprint is derived once, not once per layer.

Every ``access_fn`` / ``partition_fn`` of TM1 and SmallBank is wrapped
with a per-transaction call counter; one ``execute_bulk`` -- on a
single engine under every strategy, and on a cluster including its
shard sub-bulks and coordinator waves -- may ask each function about
each transaction at most once. The engine builds the operation array
(:class:`repro.core.oparray.OpArray`) and every layer reads it.
"""

import dataclasses
from collections import Counter

import pytest

from repro import ClusterOptions, ClusterTx, GPUTx
from repro.workloads import smallbank, tm1

N_TXNS = 300


def counted(procedures):
    """The procedures with counting access/partition functions, plus
    the two ``id(params) -> calls`` counters."""
    access_calls, partition_calls = Counter(), Counter()

    def counting(fn, calls):
        def wrapper(params):
            calls[id(params)] += 1
            return fn(params)

        return wrapper

    wrapped = [
        dataclasses.replace(
            t,
            access_fn=counting(t.access_fn, access_calls),
            partition_fn=counting(t.partition_fn, partition_calls),
        )
        for t in procedures
    ]
    return wrapped, access_calls, partition_calls


def tm1_case(seed):
    db = tm1.build_database(1, subscribers_per_sf=400)
    specs = tm1.generate_cluster_transactions(
        db, N_TXNS, shard_of=lambda key: int(key) % 4,
        cross_shard_fraction=0.1, seed=seed,
    )
    return db, tm1.CLUSTER_PROCEDURES, specs


def smallbank_case(seed):
    db = smallbank.build_database(1, accounts_per_sf=400)
    specs = smallbank.generate_transactions(db, N_TXNS, seed=seed, theta=0.6)
    return db, smallbank.PROCEDURES, specs


def fresh_params(specs):
    """One distinct params tuple per transaction, so ``id(params)``
    names the transaction."""
    return [(name, tuple(list(params))) for name, params in specs]


def assert_derived_once(transactions, access_calls, partition_calls):
    ids = {id(t.params) for t in transactions}
    assert len(ids) == len(transactions)
    for calls in (access_calls, partition_calls):
        assert set(calls) <= ids
        assert max(calls.values(), default=0) <= 1, calls.most_common(3)


@pytest.mark.parametrize("case", [tm1_case, smallbank_case])
@pytest.mark.parametrize(
    "strategy", ["auto", "kset", "part", "tpl", "tpl-relaxed"]
)
def test_single_engine_bulk_derives_each_transaction_once(case, strategy):
    db, procedures, specs = case(seed=5)
    wrapped, access_calls, partition_calls = counted(procedures)
    engine = GPUTx(db, procedures=wrapped)
    engine.submit_many(fresh_params(specs))
    transactions = engine.pool.take()
    result = engine.execute_bulk(transactions, strategy=strategy)
    assert len(result.results) == len(transactions)
    assert_derived_once(transactions, access_calls, partition_calls)


@pytest.mark.parametrize("case", [tm1_case, smallbank_case])
@pytest.mark.parametrize("cross_shard", ["parallel", "serial"])
def test_cluster_bulk_derives_each_transaction_once(case, cross_shard):
    db, procedures, specs = case(seed=9)
    wrapped, access_calls, partition_calls = counted(procedures)
    cluster = ClusterTx(
        db, procedures=wrapped, n_shards=4,
        options=ClusterOptions(cross_shard=cross_shard),
    )
    cluster.submit_many(fresh_params(specs))
    transactions = cluster.pool.take()
    result = cluster.execute_bulk(transactions)
    assert len(result.results) == len(transactions)
    # Shard sub-bulks and coordinator waves both ran off the one array.
    assert result.n_single_shard and result.n_cross_shard
    assert_derived_once(transactions, access_calls, partition_calls)
