"""A transaction returns a row id, never a staged insert's handle.

The vectorized backend stages a launch's inserts and answers an
``InsertRow``, and a probe that finds a staged row, with an encoded
handle (``wave.HANDLE_BASE + h``); the replay gives each staged row its
physical id. A result value made during the launch must come back as
that id, as the interpreter and ``CpuEngine`` return it: an insert's
reply, a probe of a row a same-launch transaction inserted, and both
inside a tuple or a list -- on every strategy that launches
(``part``, ``kset``, ``tpl``) and on both backends.
"""

import pytest

from repro import CpuEngine, EngineOptions, GPUTx
from repro.core.procedure import Access, TransactionType
from repro.gpu import ops as op_ir
from repro.workloads import micro

from tests.conftest import make_transactions


def _ins(key):
    row = yield op_ir.InsertRow(micro.TABLE, (key, 0.0, 7))
    return row


def _probe(key):
    row = yield op_ir.IndexProbe("tuples_pk", key)
    return row, key


def _both(key):
    row = yield op_ir.InsertRow(micro.TABLE, (key, 1.0, 8))
    found = yield op_ir.IndexProbe("tuples_pk", key)
    return (row, [found, key])


def _type(name, body, write):
    return TransactionType(
        name=name,
        body=body,
        access_fn=lambda p: [Access(int(p[0]), write=write)],
        partition_fn=lambda p: 1,
        conflict_classes=frozenset({micro.TABLE}),
        vector_inserts=frozenset({micro.TABLE}),
    )


PROCEDURES = [
    _type("ins", _ins, True),
    _type("probe", _probe, False),
    _type("both", _both, True),
]
SPECS = [("ins", (100,)), ("probe", (100,)), ("both", (200,)), ("probe", (200,))]


def _build():
    return micro.build_database(4, with_index=True)


@pytest.mark.parametrize("backend", ("interpreted", "vectorized"))
@pytest.mark.parametrize("strategy", ("part", "kset", "tpl"))
def test_results_name_physical_rows(strategy, backend):
    expected = CpuEngine(_build(), procedures=PROCEDURES, num_cores=1).execute(
        make_transactions(SPECS)
    )
    rows = [(r.committed, r.value) for r in expected.results]
    assert rows == [
        (True, 4), (True, (4, 100)), (True, (5, [5, 200])), (True, (5, 200)),
    ]
    db = _build()
    engine = GPUTx(db, procedures=PROCEDURES, options=EngineOptions(backend=backend))
    engine.submit_many(SPECS)
    got = []
    while len(engine.pool):
        result = engine.run_bulk(strategy=strategy)
        got += [(r.committed, r.value) for r in result.results]
    assert got == rows
