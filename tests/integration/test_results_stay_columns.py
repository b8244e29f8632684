"""Guards that keep a bulk in columns at both ends, counted with no clock.

A bulk's signatures travel from the pool to the kernel as columns
(:class:`~repro.core.txn.TransactionColumns`), and its outcomes from
the kernel launch to the result pool as columns
(:class:`~repro.gpu.simt.OutcomeColumns`, then
:class:`~repro.core.txn.ResultColumns`); a ``Transaction``, a
``ThreadOutcome`` or a ``TxnResult`` exists only while someone reads
one. Per-transaction row objects are what drove Python's cyclic
collector on the wide host workloads, so these guards count instead of
timing:

* structurally, only the row views build rows: ``Transaction`` and
  ``TxnResult`` are called (or handed to a call, as in
  ``map(TxnResult, ...)``, or bound as a row view's row class) in
  ``core/txn.py`` alone, and ``ThreadOutcome`` in ``gpu/simt.py``;
* behaviourally, a 4,096-transaction bulk on the vectorized backend
  leaves no row object alive and fewer than n/16 new objects for the
  collector to track, and no ``Transaction`` is built from
  submission to results on a K-SET bulk, a PART bulk, a cluster bulk
  or a serve run.
"""

from __future__ import annotations

import ast
import gc
from pathlib import Path

import pytest

import repro
from repro import (
    AdmissionController, ClusterOptions, ClusterTx, EngineOptions, GPUTx,
    ServeRuntime,
)
from repro.core.txn import Transaction, TxnResult
from repro.gpu.simt import ThreadOutcome
from repro.workloads import tm1, tpcb

SRC = Path(repro.__file__).parent
#: Row class -> the one module allowed to build it.
ROW_BUILDERS = {
    "Transaction": "core/txn.py",
    "TxnResult": "core/txn.py",
    "ThreadOutcome": "gpu/simt.py",
}


def _names(ref, name: str) -> bool:
    return (isinstance(ref, ast.Name) and ref.id == name) or (
        isinstance(ref, ast.Attribute) and ref.attr == name
    )


def row_constructions(source: str, name: str):
    """Lines that build ``name`` rows: a call of it, it handed to a
    call as an argument (``map(name, ...)``), or it bound as a row
    view's row class (``_row = name``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            refs = (node.func, *node.args)
        elif isinstance(node, ast.Assign):
            refs = (node.value,)
        else:
            continue
        if any(_names(ref, name) for ref in refs):
            lines.append(node.lineno)
    return sorted(lines)


class TestOnlyRowViewsBuildRows:
    @pytest.mark.parametrize("name", sorted(ROW_BUILDERS))
    def test_rows_are_built_in_one_module(self, name):
        builders = {
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if row_constructions(path.read_text(), name)
        }
        assert builders == {ROW_BUILDERS[name]}

    def test_the_walk_catches_calls_handed_and_bound_classes(self):
        source = (
            "a = TxnResult(1, 't', True)\n"
            "b = list(map(txn.TxnResult, ids, names))\n"
            "c = 'TxnResult(' + TxnResult.__name__\n"
            "class View:\n"
            "    _row = TxnResult\n"
        )
        assert row_constructions(source, "TxnResult") == [1, 2, 5]


def _live(cls) -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is cls)


def _tm1():
    db = tm1.build_database(1, subscribers_per_sf=4096, seed=7)
    return db, tm1.PROCEDURES, "kset", (
        lambda n, seed: tm1.generate_transactions(db, n, seed=seed)
    )


def _tpcb():
    db = tpcb.build_database(16, accounts_per_branch=64)
    return db, tpcb.PROCEDURES, "part", (
        lambda n, seed: tpcb.generate_transactions(db, n, seed=seed)
    )


@pytest.mark.parametrize("case", (_tm1, _tpcb), ids=("tm1-kset", "tpcb-part"))
def test_a_wide_bulk_leaves_no_rows_for_the_collector(case):
    db, procedures, strategy, generate = case()
    engine = GPUTx(
        db, procedures=procedures,
        options=EngineOptions(backend="vectorized"),
    )
    # A first small bulk pays the one-time costs (lazy imports, caches).
    engine.submit_many(generate(64, 1))
    engine.run_bulk(strategy=strategy)
    specs = generate(4096, 2)
    gc.collect()
    tracked = len(gc.get_objects())
    engine.submit_many(specs)
    result = engine.run_bulk(strategy=strategy)
    gc.collect()
    assert result.strategy == strategy and len(result.results) == len(specs)
    assert (_live(TxnResult), _live(ThreadOutcome)) == (0, 0)
    assert len(gc.get_objects()) - tracked < len(specs) // 16


# ---------------------------------------------------------------------------
# No Transaction from submission to results.
# ---------------------------------------------------------------------------
@pytest.fixture
def built_rows(monkeypatch):
    """Counts every ``Transaction`` built while the test runs."""
    count = [0]
    init = Transaction.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Transaction, "__init__", counting)
    return count


def _kset_bulk():
    db, procedures, strategy, generate = _tm1()
    specs = generate(4096, 3)
    return GPUTx(
        db, procedures=procedures, options=EngineOptions(backend="vectorized")
    ), specs, strategy


def _part_bulk():
    db, procedures, strategy, generate = _tpcb()
    specs = generate(1024, 3)
    return GPUTx(
        db, procedures=procedures, options=EngineOptions(backend="vectorized")
    ), specs, strategy


def _cluster_bulk():
    source = tm1.build_database(1, subscribers_per_sf=1024, seed=7)
    cluster = ClusterTx(
        source, procedures=tm1.CLUSTER_PROCEDURES, n_shards=4,
        options=ClusterOptions(engine=EngineOptions(backend="vectorized")),
    )
    specs = tm1.generate_cluster_transactions(
        source, 1024, shard_of=cluster.router.shard_of_key,
        cross_shard_fraction=0.05, seed=3,
    )
    return cluster, specs, "auto"


@pytest.mark.parametrize(
    "case", (_kset_bulk, _part_bulk, _cluster_bulk),
    ids=("kset-4096", "tpcb-part", "cluster-4-shards"),
)
def test_a_submitted_bulk_builds_no_transaction(case, built_rows):
    engine, specs, strategy = case()
    built_rows[0] = 0
    engine.submit_many(specs)
    result = engine.run_bulk(strategy=strategy)
    assert len(result.results) == len(specs)
    assert built_rows[0] == 0


def test_a_serve_run_builds_no_transaction(built_rows):
    """Routed, per-shard-capped admission (the row-by-row path) in
    front of a 4-shard cluster."""
    source = tm1.build_database(1, subscribers_per_sf=1024, seed=7)
    cluster = ClusterTx(
        source, procedures=tm1.CLUSTER_PROCEDURES, n_shards=4,
        options=ClusterOptions(engine=EngineOptions(backend="vectorized")),
    )
    arrivals = tm1.generate_timed_transactions(
        source, 1000, rate_tps=2e6, pattern="poisson", seed=3
    )
    runtime = ServeRuntime(
        cluster,
        admission=AdmissionController(
            1 << 12, max_pending_per_shard=1 << 10, router=cluster.router,
            registry=cluster.registry,
        ),
    )
    built_rows[0] = 0
    report = runtime.run(arrivals)
    assert report.executed == len(arrivals)
    assert built_rows[0] == 0
