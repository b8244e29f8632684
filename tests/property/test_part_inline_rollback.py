"""PART rolls an aborted transaction back at the abort, on both backends.

A partition runs its transactions back to back on one thread, so a
partition-mate of an aborted transaction must see the database as if
the aborted one never ran -- its inserts and deletes included, not just
its writes. Random partitions of non-two-phase transactions that
insert, delete and probe a few keys (through a unique and a non-unique
index) and maybe abort afterwards: the interpreted and the vectorized
backend agree on everything observable (outcomes, kernel stats, the
redo stream per table, ``physical_state()``), and agree with the serial
CPU engine on outcomes and logical state (Definition 1).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CpuEngine, GPUTx
from repro.core.procedure import Access, TransactionType
from repro.gpu import ops as op_ir
from repro.workloads import micro

from tests.conftest import make_transactions
from tests.integration.test_narrow_launch import (  # noqa: F401 (fixture)
    array_replay, assert_equivalent,
)

N_PARTS = 3


def _keys(part):
    """The primary keys partition ``part`` may touch: its own initial
    row and three of its own fresh keys."""
    return [part] + [100 * (part + 1) + k for k in range(3)]


def _churn(part, script, abort):
    seen = []
    for action, k in script:
        key = _keys(part)[k]
        row = yield op_ir.IndexProbe("tuples_pk", key)
        if action == "insert" and row < 0:
            yield op_ir.InsertRow(micro.TABLE, (key, 0.0, 5000 + part))
        elif action == "delete" and row >= 0:
            yield op_ir.DeleteRow(micro.TABLE, row)
        elif action == "probe":
            rows = yield op_ir.IndexProbe("tuples_by_payload", 5000 + part)
            seen.append((row >= 0, len(rows)))
    if abort:
        yield op_ir.Abort("churn refused")
    return tuple(seen)


CHURN = TransactionType(
    name="churn",
    body=_churn,
    access_fn=lambda p: [Access(int(p[0]), write=True)],
    partition_fn=lambda p: int(p[0]),
    two_phase=False,
    conflict_classes=frozenset({micro.TABLE}),
    vector_inserts=frozenset({micro.TABLE}),
)


def build_db():
    db = micro.build_database(8, with_index=True)
    db.create_index("tuples_by_payload", micro.TABLE, ["payload"], unique=False)
    return db


scripts = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "probe"]), st.integers(0, 3)
    ),
    max_size=4,
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, N_PARTS - 1), scripts, st.booleans()),
        min_size=1, max_size=12,
    )
)
def test_partition_mates_see_aborts_rolled_back(params):
    specs = [("churn", p) for p in params]
    assert_equivalent(build_db, [CHURN], specs, "part")
    oracle_db, db = build_db(), build_db()
    expected = CpuEngine(oracle_db, procedures=[CHURN], num_cores=1).execute(
        make_transactions(specs)
    )
    engine = GPUTx(db, procedures=[CHURN])
    engine.submit_many(specs)
    result = engine.run_bulk(strategy="part")
    assert [(r.committed, r.value) for r in result.results] == [
        (r.committed, r.value) for r in expected.results
    ]
    assert db.logical_state() == oracle_db.logical_state()


def _refused_insert(part):
    yield op_ir.InsertRow(micro.TABLE, (1000 + part, 0.0, part))
    yield op_ir.Compute(4)
    yield op_ir.Abort("refused")


def _bump(part):
    row = yield op_ir.IndexProbe("tuples_pk", part)
    value = yield op_ir.Read(micro.TABLE, "value", row)
    yield op_ir.Write(micro.TABLE, "value", row, value + 1.0)


REFUSED = TransactionType(
    name="refused",
    body=_refused_insert,
    access_fn=lambda p: [Access(int(p[0]), write=True)],
    partition_fn=lambda p: int(p[0]),
    two_phase=False,
    conflict_classes=frozenset({micro.TABLE}),
    vector_inserts=frozenset({micro.TABLE}),
)
BUMP = TransactionType(
    name="bump",
    body=_bump,
    access_fn=lambda p: [Access(int(p[0]), write=True)],
    partition_fn=lambda p: int(p[0]),
    conflict_classes=frozenset({micro.TABLE}),
)


def test_a_cancel_after_an_undeferred_event_on_the_event_matrix(array_replay):
    """An aborted insert's cancel follows the lane's COMPUTE, an event
    with a resolved address, in a launch whose reads and writes of the
    growing table are deferred: the event matrix still orders the
    cancel after the insert it undoes."""
    specs = [
        (name, (p,)) for p in range(40) for name in ("bump", "refused", "bump")
    ]

    def build():
        return micro.build_database(64, with_index=True)

    (report,) = assert_equivalent(
        build, [REFUSED, BUMP], specs, "part", partition_size=1
    )
    assert report.stats.ops_executed > 192
    oracle_db, db = build(), build()
    expected = CpuEngine(
        oracle_db, procedures=[REFUSED, BUMP], num_cores=1
    ).execute(make_transactions(specs))
    engine = GPUTx(db, procedures=[REFUSED, BUMP])
    engine.submit_many(specs)
    result = engine.run_bulk(strategy="part", partition_size=1)
    assert [(r.committed, r.value) for r in result.results] == [
        (r.committed, r.value) for r in expected.results
    ]
    assert db.logical_state() == oracle_db.logical_state()
