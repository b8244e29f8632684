"""Property: the cost replay's two paths are one function.

``replay_kernel`` groups and charges a launch of at most
``NARROW_EVENTS`` recorded events as Python tuples and a larger one as
one event matrix. This file builds recorder and store states the
backends can produce and replays each twice, once forced down each
path, on twin copies; the two must agree on ``KernelStats`` field by
field, ``KernelTiming``, ``store.handle_row``, ``physical_state()`` and
the redo stream.

A launch is a list of runs of threads sharing one program: runs give
warps different lifetimes, so the scheduler's swap-removal permutes
its visit order and same-round inserts land in visit-rank order, not
thread order. Programs mix scalar and per-lane branch tags, steps and
scalar-buffered records, probes, COMPUTE/SFU, undo-flagged writes,
inserts into two tables, deletes, handle writes, deferred addresses
and -- under ``ScheduleOverrides`` -- lock acquire/release steps, at
widths from one thread to several warps on several SMs.

The last test is the routing guard: a launch of ``NARROW_EVENTS``
events never builds the event matrix, one more event does.
"""

import dataclasses
import random
from contextlib import contextmanager

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.durability.wal import RedoRecorder, redo_bytes
from repro.core.backends import replay
from repro.core.backends.replay import ScheduleOverrides, replay_kernel
from repro.core.backends.wave import HANDLE_BASE, Step, TraceRecorder, WaveStore
from repro.gpu import ops as op_ir
from repro.gpu.costmodel import KernelStats
from repro.gpu.simt import OutcomeColumns, SIMTEngine, warp_layout
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.schema import ColumnDef, DataType, TableSchema

STATS_FIELDS = tuple(f.name for f in dataclasses.fields(KernelStats))
#: Two tables that gain rows (of two row widths) and one that does not.
LOG, LOG2, ACCT = "log", "log2", "acct"
#: Rows per table: enough for every lane of a launch to delete one
#: distinct row per op.
N_ROWS = 2048
LOCK_BASE = 1 << 40
OPS = (
    "read", "read4", "read_d", "write", "write_d", "probe", "compute",
    "sfu", "insert", "insert2", "delete",
)
#: ``NARROW_EVENTS`` that forces each path.
FORCE = {"scalar": 1 << 62, "array": -1}


def _database():
    db = Database("column")
    for name, extra in ((LOG, 0), (LOG2, 2), (ACCT, 0)):
        columns = ["id", "val"] + [f"pad{i}" for i in range(extra)]
        table = db.create_table(
            TableSchema(
                name,
                [ColumnDef(c, DataType.INT64) for c in columns],
                primary_key=("id",),
                partition_key="id",
            ),
            capacity=N_ROWS,
        )
        table.append_columns(
            {c: np.arange(N_ROWS, dtype=np.int64) for c in columns}
        )
    return db


@st.composite
def _plans(draw):
    """A launch as plain data: block size, ``(threads, program)``
    runs, a seed for recording styles and values, undo flags on or
    off, and a lock schedule or none."""
    programs = draw(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(OPS), st.integers(-1, 1)),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        )
    )
    runs = draw(
        st.lists(
            st.tuples(st.integers(1, 70), st.integers(0, len(programs) - 1)),
            min_size=1,
            max_size=6,
        )
    )
    return {
        "block_size": draw(st.sampled_from((32, 64, 256))),
        "runs": [(n, programs[p]) for n, p in runs],
        "seed": draw(st.integers(0, 2**16)),
        "undo": draw(st.booleans()),
        "schedule": draw(st.booleans()),
    }


def _build(plan):
    """Materialise ``plan``: a fresh database and the ``(recorder,
    store, engine, outcomes, schedule)`` a launch hands the replay.
    Deterministic, so two calls build twins."""
    rng = random.Random(plan["seed"])
    program = [ops for n, ops in plan["runs"] for _ in range(n)]
    n = len(program)
    db = _database()
    adapter = StoreAdapter(db)
    redo = RedoRecorder()
    adapter.attach_recorder(redo)
    store = WaveStore(adapter, frozenset({LOG, LOG2}))
    engine = SIMTEngine(block_size=plan["block_size"])
    recorder = TraceRecorder(n)
    if plan["undo"]:
        recorder.undo_capture = np.array(
            [rng.random() < 0.5 for _ in range(n)], dtype=bool
        )
    locked = []
    if plan["schedule"]:
        locked = [t for t in range(n) if rng.random() < 0.5]
        for t in locked:
            recorder.round_base[t] = 2 + rng.randrange(3)
    handles = {}  # thread -> its staged insert's encoded row
    next_delete = iter(range(N_ROWS))
    uid = iter(range(1000, 10**6))

    def fields(op, t):
        """``(kind, record keywords)`` of one lane's op, after staging
        its store effect."""
        if op in ("read", "write"):
            addr, width, _ = store.cells(ACCT, "val", rng.randrange(N_ROWS))
            kind = op_ir.READ if op == "read" else op_ir.WRITE
            return kind, {"addr": int(addr), "width": width}
        if op == "read4":
            return op_ir.READ, {"addr": 4 * rng.randrange(64), "width": 4}
        if op in ("read_d", "write_d"):
            table = rng.choice((LOG, LOG2))
            row = handles.get(t) if rng.random() < 0.5 else None
            if row is None or store.pending_inserts[row - HANDLE_BASE][0] != table:
                row = rng.randrange(N_ROWS)
            if op == "write_d":
                if row >= HANDLE_BASE:
                    store.stage_handle_write(table, "val", row - HANDLE_BASE, t)
                else:
                    adapter.write(table, "val", row, t)
            _addr, width, deferred = store.cells(table, "val", row)
            kind = op_ir.READ if op == "read_d" else op_ir.WRITE
            return kind, {"width": width, "deferred": deferred}
        if op == "probe":
            base = 16 * rng.randrange(32)
            return op_ir.INDEX_PROBE, {"addr": (base, base + 8)}
        if op in ("compute", "sfu"):
            kind = op_ir.COMPUTE if op == "compute" else op_ir.SFU_COMPUTE
            return kind, {"amount": rng.choice((1, 3, 16))}
        if op in ("insert", "insert2"):
            table = LOG if op == "insert" else LOG2
            width = len(db.table(table).schema.columns)
            values = (next(uid),) + (t,) * (width - 1)
            row = int(store.stage_inserts(table, [values])[0])
            handles[t] = row
            return op_ir.INSERT_ROW, {"table": table, "payload": row}
        row = next(next_delete)
        store.stage_delete(LOG, row)
        return op_ir.DELETE_ROW, {"table": LOG, "payload": row}

    depth = max(len(p) for p in program)
    for k in range(depth):
        by_op = {}
        for t in range(n):
            if k < len(program[t]):
                op, tag = program[t][k]
                by_op.setdefault(op, []).append((t, tag))
        for op, lanes in by_op.items():
            style = rng.choice(("steps", "per_lane", "scalar"))
            if style == "scalar":
                for t, tag in lanes:
                    kind, kw = fields(op, t)
                    recorder.record_scalar(kind, t, tag, **kw)
                continue
            if style == "steps":
                by_tag = {}
                for t, tag in lanes:
                    by_tag.setdefault(tag, []).append(t)
                parts = [(ts, tag) for tag, ts in by_tag.items()]
            else:
                parts = [([t for t, _ in lanes], np.array([g for _, g in lanes]))]
            for ts, branch in parts:
                cols = [fields(op, t) for t in ts]
                kind, kw0 = cols[0]
                kw = {}
                for key in ("width", "amount", "table"):
                    if key in kw0:
                        kw[key] = kw0[key]
                if "addr" in kw0:
                    kw["addr"] = np.array([c[1]["addr"] for c in cols])
                if "payload" in kw0:
                    kw["payload"] = np.array([c[1]["payload"] for c in cols])
                if "deferred" in kw0:
                    # One step per (table, width): a step is one shape.
                    shapes = {}
                    for t, (_kind, kwt) in zip(ts, cols):
                        table, column, row = kwt["deferred"]
                        shapes.setdefault((table, kwt["width"]), []).append((t, row))
                    for (table, width), members in shapes.items():
                        recorder.record(
                            kind,
                            np.array([t for t, _ in members], dtype=np.int64),
                            branch if np.isscalar(branch) else np.array(
                                [branch[ts.index(t)] for t, _ in members]
                            ),
                            width=width,
                            deferred=(
                                table, "val",
                                np.array([r for _, r in members], dtype=np.int64),
                            ),
                        )
                    continue
                recorder.record(kind, np.array(ts, dtype=np.int64), branch, **kw)

    schedule = None
    if plan["schedule"]:
        # The lock scheduler's synthetic steps: a pass event the round
        # before a thread's body, a release the round after it.
        locked_arr = np.array(locked, dtype=np.int64)
        tags = np.array([rng.randint(-1, 1) for _ in locked], dtype=np.int64)
        ids = np.array([rng.randrange(4) for _ in locked], dtype=np.int64)
        if len(locked):
            base = recorder.round_base[locked_arr]
            for kind, rounds in (
                (op_ir.LOCK_ACQUIRE, base - 1),
                (op_ir.LOCK_RELEASE, base + recorder.op_count[locked_arr]),
            ):
                recorder.steps.append(
                    Step(kind, locked_arr, rounds, tags, addr=LOCK_BASE + ids * 8)
                )
        layout = warp_layout(n, engine.block_size, engine.spec)
        last = recorder.round_base + recorder.op_count
        last[locked_arr] += 1
        warp_last = np.array(
            [int(last[lo:hi].max()) - 1 for lo, hi in layout[0]],
            dtype=np.int64,
        )
        num_sms = engine.spec.num_sms

        def charges(dtype):
            return np.array(
                [rng.randrange(50) for _ in range(num_sms)], dtype=dtype
            )

        schedule = ScheduleOverrides(
            layout=layout,
            rounds=int(warp_last.max()) + rng.randrange(3),
            warp_last_round=warp_last,
            issue_cycles=charges(np.float64),
            atomic_cycles=charges(np.float64),
            mem_transactions=charges(np.int64),
            mem_bytes=charges(np.int64),
            spin_iterations=rng.randrange(9),
            atomic_conflicts=rng.randrange(9),
            divergent_serializations=rng.randrange(9),
        )
    outcomes = OutcomeColumns(
        list(range(n)), [0] * n, [rng.random() < 0.8 for _ in range(n)],
        [""] * n, [None] * n,
    )
    return db, redo, (recorder, store, engine, outcomes, schedule)


@contextmanager
def forced(path):
    """Every replay in the block takes ``path``."""
    narrow = replay.NARROW_EVENTS
    replay.NARROW_EVENTS = FORCE[path]
    try:
        yield
    finally:
        replay.NARROW_EVENTS = narrow


def _replayed(plan, path):
    db, redo, launch = _build(plan)
    with forced(path):
        report = replay_kernel(*launch)
    store = launch[1]
    return report, store.handle_row, db.physical_state(), redo.cut()


#: Warp 0 ends after one op while warps 1 and 2 run on: the sweep
#: swaps warp 2 ahead of warp 1, so their same-round inserts apply in
#: that order, not in thread order.
_VISIT_ORDER = {
    "block_size": 256,
    "runs": [
        (32, [("compute", 0)]),
        (64, [("compute", 0), ("compute", 0), ("insert", 0), ("insert2", 1)]),
    ],
    "seed": 7,
    "undo": False,
    "schedule": False,
}
#: Undo-flagged writes in every group.
_UNDO = {
    "block_size": 32,
    "runs": [(40, [("write", 0), ("write", 1), ("write_d", 0)])],
    "seed": 3,
    "undo": True,
    "schedule": True,
}


def _types(value):
    """A stats field's Python type(s): ``0 == 0.0``, but an int where
    the other path has a float is a difference downstream."""
    return [type(v) for v in value] if isinstance(value, list) else type(value)


@settings(max_examples=60, deadline=None)
@given(plan=_plans())
@example(plan=_VISIT_ORDER)
@example(plan=_UNDO)
def test_scalar_and_array_replays_agree(plan):
    rs, handles_s, state_s, redo_s = _replayed(plan, "scalar")
    ra, handles_a, state_a, redo_a = _replayed(plan, "array")
    for name in STATS_FIELDS:
        value_s, value_a = getattr(rs.stats, name), getattr(ra.stats, name)
        assert value_s == value_a, name
        assert _types(value_s) == _types(value_a), name
    assert rs.timing == ra.timing
    assert handles_s == handles_a
    assert state_s == state_a
    assert redo_s == redo_a
    assert redo_bytes(redo_s) == redo_bytes(redo_a)


def test_visit_order_example_exercises_the_swap():
    """The pinned example really orders inserts off thread order: the
    physical rows of its inserts are not ascending in thread."""
    _report, handle_row, _state, _redo = _replayed(_VISIT_ORDER, "scalar")
    store = _build(_VISIT_ORDER)[2][1]
    threads_by_row = sorted(
        (handle_row[h], values[1])
        for h, (table, values) in enumerate(store.pending_inserts)
        if table == LOG
    )
    threads = [t for _row, t in threads_by_row]
    assert threads != sorted(threads)


# ---------------------------------------------------------------------------
# Routing guard: one test, one constant, no clock.
# ---------------------------------------------------------------------------
def _launch_of(n_events):
    """A one-warp launch of exactly ``n_events`` events (COMPUTE ops
    over 8 threads)."""
    recorder = TraceRecorder(8)
    lanes = np.arange(8, dtype=np.int64)
    full, rest = divmod(n_events, 8)
    for _ in range(full):
        recorder.record(op_ir.COMPUTE, lanes, 0, amount=2)
    if rest:
        recorder.record(op_ir.COMPUTE, lanes[:rest], 0, amount=2)
    store = WaveStore(StoreAdapter(_database()), frozenset())
    outcomes = OutcomeColumns(
        list(range(8)), [0] * 8, [True] * 8, [""] * 8, [None] * 8
    )
    return recorder, store, SIMTEngine(), outcomes


def test_narrow_events_routes_the_replay(monkeypatch):
    built = []
    charge_arrays = replay._charge_arrays

    def spy(*args):
        built.append(True)
        return charge_arrays(*args)

    monkeypatch.setattr(replay, "_charge_arrays", spy)
    narrow = replay.NARROW_EVENTS
    report = replay_kernel(*_launch_of(narrow))
    assert report.stats.ops_executed == narrow
    assert built == []
    report = replay_kernel(*_launch_of(narrow + 1))
    assert report.stats.ops_executed == narrow + 1
    assert built == [True]
