"""One path per ``WaveContext`` op.

Every op picks its lanes through one selection that NumPy applies the
same way whether it covers every lane (a slice, no copy) or only some
(their indices). This file pins the equivalence that makes one path
enough: an op run with ``mask=None``, with an all-True mask, after an
``abort_where`` that aborts no lane, and on a wider sub-wave whose
extra lane already aborted returns the same replies (at the common
lanes) and leaves the same recorded steps, store effects and undo logs.
"""

import numpy as np
import pytest

from repro.core.backends.wave import TraceRecorder, WaveContext, WaveStore
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.schema import ColumnDef, DataType, TableSchema

#: Launch-global thread ids of the sub-wave's lanes (the last one is
#: the extra lane of the "extra-lane-aborted" mode).
LANES = [2, 5, 7, 8]
N = 3


def _table(db, name, n_rows):
    table = db.create_table(
        TableSchema(
            name,
            [
                ColumnDef("id", DataType.INT64),
                ColumnDef("x", DataType.INT64),
                ColumnDef("v", DataType.FLOAT64),
            ],
            primary_key=("id",),
        ),
        capacity=n_rows,
    )
    ids = np.arange(n_rows, dtype=np.int64)
    table.append_columns({"id": ids, "x": ids % 3, "v": ids * 1.5})


def _database():
    """``t`` (read and written in place) and ``log`` (gains and loses
    rows, so its addresses resolve late), each with a unique key, a
    composite unique key and a multi index."""
    db = Database("column")
    for name in ("t", "log"):
        _table(db, name, 8)
        db.create_index(f"{name}_pk", name, ["id"])
        db.create_index(f"{name}_id_x", name, ["id", "x"])
        db.create_index(f"{name}_by_x", name, ["x"], unique=False)
    return db


def _col(values, n):
    return np.asarray(values)[:n]


OPS = {
    "set_branch": lambda c, m: c.set_branch(),
    "index_probe": lambda c, m: c.index_probe(
        "t_pk", _col([1, 3, 99, 4], c.n), mask=m
    ),
    "index_probe_composite": lambda c, m: c.index_probe(
        "t_id_x", (_col([1, 2, 4, 5], c.n), _col([1, 0, 1, 2], c.n)), mask=m
    ),
    "index_probe_multi": lambda c, m: c.index_probe_multi(
        "t_by_x", _col([0, 2, 5, 1], c.n), mask=m
    ),
    "read": lambda c, m: c.read("t", "v", _col([1, 3, 4, 6], c.n), mask=m),
    "read_mutating": lambda c, m: c.read(
        "log", "x", _col([1, 3, 4, 6], c.n), mask=m
    ),
    "write": lambda c, m: c.write(
        "t", "v", _col([1, 3, 4, 6], c.n), _col([0.5, 1.5, 2.5, 3.5], c.n),
        mask=m,
    ),
    "write_scalar": lambda c, m: c.write(
        "log", "v", _col([1, 3, 4, 6], c.n), 9.0, mask=m
    ),
    "compute": lambda c, m: c.compute(3, mask=m),
    "sfu": lambda c, m: c.sfu(2, mask=m),
    "insert": lambda c, m: c.insert(
        "log", (_col([20, 21, 22, 23], c.n), 1, _col([0.1, 0.2, 0.3, 0.4], c.n)),
        mask=m,
    ),
    "delete": lambda c, m: c.delete("log", _col([0, 2, 5, 7], c.n), mask=m),
}

MODES = ("mask-none", "mask-all-true", "after-null-abort", "extra-lane-aborted")


def _plain(value, n):
    """A reply as comparable plain values, cut to the first ``n`` lanes."""
    if isinstance(value, tuple):
        return tuple(_plain(v, n) for v in value)
    if isinstance(value, np.ndarray):
        return str(value.dtype), value[:n].tolist()
    return value


def _run(op, mode):
    db = _database()
    store = WaveStore(StoreAdapter(db), frozenset({"log"}))
    width = N + (mode == "extra-lane-aborted")
    recorder = TraceRecorder(max(LANES) + 1)
    recorder.undo_capture = np.ones(max(LANES) + 1, dtype=bool)
    ctx = WaveContext(
        recorder, store, np.array(LANES[:width]), 4, "x",
        [(i,) for i in range(width)],
        record_abort_ops=False, capture_undo=True,
    )
    mask = None
    if mode == "mask-all-true":
        mask = np.ones(width, dtype=bool)
    elif mode == "after-null-abort":
        ctx.abort_where(np.zeros(width, dtype=bool), "never")
    elif mode == "extra-lane-aborted":
        ctx.abort_where(np.arange(width) == N, "extra")
    reply = OPS[op](ctx, mask)

    def arr(a):
        return None if a is None else (str(np.asarray(a).dtype), np.asarray(a).tolist())

    steps = [
        (
            s.kind, s.branch, s.amount, s.width, s.table, arr(s.lanes),
            arr(s.rounds), arr(s.addr), arr(s.payload), arr(s.undo),
            s.target, arr(s.rows),
        )
        for s in recorder.flush()
    ]
    return {
        "reply": _plain(reply, N),
        "steps": steps,
        "op_count": recorder.op_count.tolist()[: max(LANES[:N]) + 1],
        "state": db.physical_state(),
        "staged": (
            store.pending_inserts, store.pending_deletes,
            store.pending_handle_writes,
        ),
        "undo": ctx.undo[:N],
        "active": ctx.active[:N].tolist(),
    }


@pytest.mark.parametrize("op", sorted(OPS))
def test_every_lane_and_some_lanes_take_one_path(op):
    runs = {mode: _run(op, mode) for mode in MODES}
    reference = runs["mask-none"]
    for mode, run in runs.items():
        for part in reference:
            assert run[part] == reference[part], (mode, part)


def test_the_ops_record_and_mutate():
    """What the equivalence above must reach to mean anything."""
    runs = {op: _run(op, "mask-none") for op in OPS}
    assert all(runs[op]["steps"] for op in OPS)
    assert runs["write"]["state"] != runs["compute"]["state"]
    assert runs["insert"]["staged"][0] and runs["delete"]["staged"][1]
    assert all(runs[op]["undo"] != [[]] * N for op in ("write", "insert", "delete"))
    assert runs["read_mutating"]["steps"][0][-1] is not None  # deferred
    assert runs["read"]["steps"][0][7] is not None  # resolved addresses
