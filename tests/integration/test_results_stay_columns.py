"""Guards that keep a bulk's outcomes in columns, counted with no clock.

A bulk's outcomes travel from the kernel launch to the result pool as
columns (:class:`~repro.gpu.simt.OutcomeColumns`, then
:class:`~repro.core.txn.ResultColumns`); a ``ThreadOutcome`` or a
``TxnResult`` exists only while someone reads one. Per-transaction
row objects are what drove Python's cyclic collector on the wide host
workloads, so these guards count instead of timing:

* structurally, only the row views build rows: ``TxnResult`` is
  called (or handed to a call, as in ``map(TxnResult, ...)``) in
  ``core/txn.py`` alone, and ``ThreadOutcome`` in ``gpu/simt.py``;
* behaviourally, a 4,096-transaction bulk on the vectorized backend
  leaves no row object alive and fewer than n/16 new objects for the
  collector to track.
"""

from __future__ import annotations

import ast
import gc
from pathlib import Path

import pytest

import repro
from repro import EngineOptions, GPUTx
from repro.core.txn import TxnResult
from repro.gpu.simt import ThreadOutcome
from repro.workloads import tm1, tpcb

SRC = Path(repro.__file__).parent
#: Row class -> the one module allowed to build it.
ROW_BUILDERS = {"TxnResult": "core/txn.py", "ThreadOutcome": "gpu/simt.py"}


def row_constructions(source: str, name: str):
    """Lines that build ``name`` rows: a call of it, or it handed to a
    call as an argument (``map(name, ...)``)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            for ref in (node.func, *node.args):
                if (isinstance(ref, ast.Name) and ref.id == name) or (
                    isinstance(ref, ast.Attribute) and ref.attr == name
                ):
                    lines.append(node.lineno)
    return lines


class TestOnlyRowViewsBuildRows:
    @pytest.mark.parametrize("name", sorted(ROW_BUILDERS))
    def test_rows_are_built_in_one_module(self, name):
        builders = {
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if row_constructions(path.read_text(), name)
        }
        assert builders == {ROW_BUILDERS[name]}

    def test_the_walk_catches_calls_and_handed_classes(self):
        source = (
            "a = TxnResult(1, 't', True)\n"
            "b = list(map(txn.TxnResult, ids, names))\n"
            "c = 'TxnResult(' + TxnResult.__name__\n"
        )
        assert row_constructions(source, "TxnResult") == [1, 2]


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
