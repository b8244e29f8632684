"""Tests that pin the single authoring form (repro.core.backends.lane).

TPC-B, TPC-C, SmallBank and TM1 write each stored procedure once, as
a kernel both backends drive. Nothing diffs two forms of those types
any more, so what could still go wrong is pinned here: a forgotten
``yield``, a one-lane context drifting from ``WaveContext``'s surface,
a registration that does not wrap one function, and the two-phase
check no longer reading a derived stream.
"""

import ast
import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

from repro import EngineOptions, GPUTx
from repro.core.backends.lane import LaneContext
from repro.core.backends.wave import TraceRecorder, WaveContext
from repro.core.procedure import TransactionType
from repro.core.tx_logging import validate_two_phase
from repro.core.txn import Transaction
from repro.errors import RegistrationError
from repro.gpu import ops as op_ir
from repro.storage.catalog import StoreAdapter
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc

SINGLE_SOURCE = (
    tpcb.PROCEDURES + tpcc.PROCEDURES + smallbank.PROCEDURES
    + tm1.CLUSTER_PROCEDURES
)

#: The ops of the kernel surface: each call must be yielded.
OPS = {
    "index_probe", "index_probe_multi", "read", "write", "compute", "sfu",
    "insert", "delete", "abort_where",
}
#: The whole surface a kernel may touch on ``ctx``.
SURFACE = OPS | {
    "param_i64", "param_f64", "param_bool", "param_obj", "param_lists",
    "finish", "finish_where", "n", "active",
    "where", "zeros", "pick", "most", "first_seen",
}
#: ndarray methods a lane's Python scalar does not have.
ARRAY_METHODS = {"max", "min", "sum", "any", "all", "astype", "tolist", "item"}


def unyielded_ops(kernel):
    """``(line, op)`` of every op call on the kernel's context that is
    not the direct operand of a ``yield``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
    ctx = tree.body[0].args.args[0].arg
    yielded = {
        id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Yield)
    }
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == ctx
        and node.func.attr in OPS
        and id(node) not in yielded
    ]


def column_idioms(kernel):
    """``(line, idiom)`` of every place the kernel computes on columns
    rather than through its context: a NumPy function call, an ndarray
    method, a ``[:, j]`` slice. A NumPy dtype passed as an argument is
    not a call and passes."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
    ctx = tree.body[0].args.args[0].arg
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            root = node.func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            name = root.id if isinstance(root, ast.Name) else None
            if name in ("np", "numpy"):
                found.append((node.lineno, f"np.{node.func.attr}"))
            elif name != ctx and node.func.attr in ARRAY_METHODS:
                found.append((node.lineno, f".{node.func.attr}()"))
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            if any(isinstance(e, ast.Slice) for e in node.slice.elts):
                found.append((node.lineno, "[:, j]"))
    return sorted(found)


class TestYieldRule:
    @pytest.mark.parametrize("proc", SINGLE_SOURCE, ids=lambda t: t.name)
    def test_every_op_call_is_yielded(self, proc):
        """A forgotten ``yield`` still executes in a wave but vanishes
        from the lane stream, and the equivalence walls only see it on
        inputs that reach that line."""
        assert unyielded_ops(proc.body.__wrapped__) == []

    def test_the_walk_catches_a_forgotten_yield(self):
        def kernel(c):
            row = yield c.index_probe("pk", c.param_i64(0))
            c.abort_where(row < 0, "missing")  # forgotten
            c.finish(c.read("t", "v", row))  # nested, not yielded

        assert [op for _line, op in unyielded_ops(kernel)] == [
            "abort_where", "read",
        ]

    @pytest.mark.parametrize("proc", SINGLE_SOURCE, ids=lambda t: t.name)
    def test_no_kernel_computes_on_columns(self, proc):
        """A lane holds Python scalars: a NumPy call or a column slice
        in a kernel would put one-element arrays back on the lane path
        (or fail there). Kernels use operators and the helpers."""
        assert column_idioms(proc.body.__wrapped__) == []

    def test_the_walk_catches_column_idioms(self):
        def kernel(c):
            rows, n = yield c.index_probe_multi("ix", c.param_i64(0))
            total = np.zeros(c.n, dtype=np.int64)
            first = rows[:, 0]
            last = rows[np.arange(c.n), n - 1]
            ok = c.zeros(np.int64) + c.pick(rows, n - 1)  # dtype argument
            c.finish(total + first + last + ok + n.max())

        assert [idiom for _line, idiom in column_idioms(kernel)] == [
            "np.zeros", "[:, j]", "np.arange", ".max()",
        ]

    def test_a_plain_function_is_not_a_kernel(self):
        def not_a_kernel(ctx):
            ctx.finish()

        with pytest.raises(RegistrationError, match="generator function"):
            TransactionType.from_kernel(
                not_a_kernel, name="x", access_fn=lambda p: []
            )


class TestOneSurface:
    def test_lane_context_mirrors_wave_context(self):
        """Same public names, same parameter lists -- the helpers
        included: a kernel cannot tell which context it runs on. What
        the lane holds is lane 0 of the wave's columns as a Python
        value, and so is what its helpers return."""
        lane = LaneContext((7,))
        wave = WaveContext(
            TraceRecorder(1), None, np.array([0]), 0, [Transaction(0, "x", (7,))]
        )
        public = {name for name in dir(lane) if not name.startswith("_")}
        # ``result`` is the lane stream's return value, not kernel surface.
        assert public - {"result"} == SURFACE
        for name in sorted(SURFACE):
            ours, theirs = getattr(lane, name), getattr(wave, name)
            if not callable(ours):
                assert _typed(ours) == _typed(lane0(theirs)), name
                continue
            assert [
                (p.name, p.kind, p.default)
                for p in inspect.signature(ours).parameters.values()
            ] == [
                (p.name, p.kind, p.default)
                for p in inspect.signature(theirs).parameters.values()
            ], name
        one = np.array
        calls = [
            ("param_i64", (0,), (0,)),
            ("param_f64", (0,), (0,)),
            ("param_bool", (0,), (0,)),
            ("where", (True, 2, 3.5), (one([True]), one([2]), one([3]))),
            ("where", (False, 2.5, 3.5), (one([False]), one([2.5]), one([3.5]))),
            ("zeros", (), ()),
            ("zeros", (np.int64,), (np.int64,)),
            ("pick", ([4, 5], 1), (one([[4, 5]]), 1)),
            ("pick", ([4], 1), (one([[4, 0]]), 1)),
            ("pick", ([4, 5], 1), (one([[4, 5]]), one([1]))),
            ("most", (6,), (one([6]),)),
            ("first_seen", (set(), 3, True), (set(), one([3]), one([True]))),
            ("first_seen", ({3}, 3, True), ({(0, 3)}, one([3]), one([True]))),
            ("first_seen", (set(), 3, False), (set(), one([3]), one([False]))),
        ]
        for name, ours, theirs in calls:
            assert _typed(getattr(lane, name)(*ours)) == _typed(
                lane0(getattr(wave, name)(*theirs))
            ), (name, ours)
        rows, count = LaneContext(((3, 4),)).param_lists(0)
        assert _typed((rows, count)) == _typed(([3, 4], 2))

    def test_masked_off_ops_issue_nothing(self):
        """No op, no round -- and the kernel gets back, as a Python
        value, lane 0 of what ``WaveContext`` leaves at a masked-off
        lane; a multi-index probe's reply is a list plus a count."""
        replies = {}

        def kernel(ctx):
            off = ctx.zeros(bool)
            row = ctx.zeros(np.int64)
            replies[type(ctx)] = [
                (yield ctx.index_probe("pk", row, mask=off)),
                (yield ctx.index_probe_multi("by_x", row, mask=off)),
                (yield ctx.read("t", "v", row, mask=off)),
                (yield ctx.write("t", "v", row, row, mask=off)),
                (yield ctx.compute(3, mask=off)),
                (yield ctx.sfu(3, mask=off)),
                (yield ctx.insert("t", (row,), mask=off)),
                (yield ctx.delete("t", row, mask=off)),
                (yield ctx.abort_where(off, "never")),
            ]
            ctx.finish_where(off, row)
            ctx.finish(row + 9)

        proc = TransactionType.from_kernel(
            kernel, name="masked", access_fn=lambda p: []
        )
        with pytest.raises(StopIteration) as stop:
            next(proc.body())
        assert _typed(stop.value.value) == _typed(9)
        recorder = TraceRecorder(1)
        wave = WaveContext(
            recorder, None, np.array([0]), 0, [Transaction(0, "masked", ())]
        )
        proc.vector_body(wave)
        recorder.flush_scalar()
        assert recorder.steps == [] and wave.results.tolist() == [9]
        ours = replies[LaneContext]
        assert _typed(ours) == _typed([lane0(r) for r in replies[WaveContext]])
        assert _typed(ours[1]) == ("tuple", [("list", []), ("int", 0)])

    def test_a_multi_probe_answers_a_list_and_a_count(self):
        """Whatever sequence the interpreter answers with (a tuple from
        ``StoreAdapter.probe``, a list from ``run_lane``), the kernel
        gets a list of its own plus the count."""
        got = []

        def kernel(ctx):
            got.append((yield ctx.index_probe_multi("by_x", ctx.param_i64(0))))
            ctx.finish()

        body = TransactionType.from_kernel(
            kernel, name="multi", access_fn=lambda p: []
        ).body
        for answer in ((5, 6), [5, 6]):
            stream = body(1)
            assert next(stream).key == 1
            with pytest.raises(StopIteration):
                stream.send(answer)
        assert _typed(got) == _typed([([5, 6], 2)] * 2)
        assert got[1][0] is not got[0][0]

    def test_values_cross_the_op_edge_as_python_scalars(self):
        def kernel(ctx):
            key = ctx.param_i64(0)
            row = yield ctx.index_probe("pk", (key, ctx.param_obj(1)))
            value = yield ctx.read("t", "v", row)
            yield ctx.write("t", "v", row, value + ctx.param_f64(2))
            yield ctx.insert("t", (key, value, "shared"))
            ctx.finish(value, row)

        stream = TransactionType.from_kernel(
            kernel, name="edge", access_fn=lambda p: []
        ).body(3, "k", 0.5)
        probe = next(stream)
        assert probe.key == (3, "k") and type(probe.key[0]) is int
        read = stream.send(4)
        assert (read.row, type(read.row)) == (4, int)
        write = stream.send(2.0)
        assert (write.value, type(write.value)) == (2.5, float)
        insert = stream.send(None)
        assert insert.values == (3, 2.0, "shared")
        assert [type(v) for v in insert.values] == [int, float, str]
        with pytest.raises(StopIteration) as stop:
            stream.send(9)
        assert stop.value.value == (2.0, 4)
        assert [type(v) for v in stop.value.value] == [float, int]


class TestOneDefinition:
    @pytest.mark.parametrize("proc", SINGLE_SOURCE, ids=lambda t: t.name)
    def test_both_forms_wrap_one_generator_function(self, proc):
        kernel = proc.body.__wrapped__
        assert proc.vector_body.__wrapped__ is kernel
        assert inspect.isgeneratorfunction(kernel)
        assert inspect.isgeneratorfunction(proc.body)

    def test_micro_keeps_hand_written_pairs(self):
        """The independent reference of the equivalence walls: micro's
        two forms are two functions (see its module docstring), for the
        one-tuple and the pair procedures alike."""
        procs = micro.build_procedures(2) + micro.build_pair_procedures(2)
        for proc in procs:
            assert not hasattr(proc.body, "__wrapped__"), proc.name
            assert not hasattr(proc.vector_body, "__wrapped__"), proc.name
            assert not inspect.isgeneratorfunction(proc.vector_body)

    @pytest.mark.parametrize(
        "build_db, procedures, generate",
        [
            (
                lambda: tpcb.build_database(4, accounts_per_branch=8),
                tpcb.PROCEDURES,
                lambda db: tpcb.generate_transactions(db, 60, seed=4),
            ),
            (
                lambda: tpcc.build_database(
                    2, customers_per_district=4, n_items=16,
                    init_orders_per_district=6, seed=4,
                ),
                tpcc.PROCEDURES,
                lambda db: tpcc.generate_transactions(
                    db, 40, seed=4, invalid_item_prob=0.2
                ),
            ),
            (
                lambda: smallbank.build_database(1, accounts_per_sf=24, seed=4),
                smallbank.PROCEDURES,
                lambda db: smallbank.generate_transactions(
                    db, 120, seed=4, theta=0.6
                ),
            ),
            (
                lambda: tm1.build_database(1, subscribers_per_sf=40, seed=4),
                tm1.PROCEDURES,
                lambda db: tm1.generate_transactions(db, 120, seed=4),
            ),
        ],
        ids=["tpcb", "tpcc", "smallbank", "tm1"],
    )
    def test_stripping_the_vector_form_runs_the_stream_vectorized(
        self, build_db, procedures, generate
    ):
        """``dataclasses.replace(t, vector_body=None)`` is how benches
        and tests make a stream-only type; a type derived from a kernel
        must not refill it, and the vectorized backend runs it lane by
        lane with the same outcomes, clock and state."""
        stripped = [dataclasses.replace(t, vector_body=None) for t in procedures]
        assert all(t.vector_body is None for t in stripped)
        specs = generate(build_db())
        observed = []
        for procs in (procedures, stripped):
            db = build_db()
            engine = GPUTx(
                db, procedures=procs, options=EngineOptions(backend="vectorized")
            )
            engine.submit_many(specs)
            result = engine.run_bulk(strategy="kset")
            assert result.backend == "vectorized"
            observed.append(
                (
                    [(r.txn_id, r.committed, r.abort_reason, r.value)
                     for r in result.results],
                    result.seconds,
                    db.physical_state(),
                )
            )
        assert observed[0] == observed[1]


def _typed(value):
    """``value`` with the type of every leaf: ``True == 1`` is no
    match."""
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [_typed(v) for v in value]
    return type(value).__name__, value


def lane0(reply):
    """Lane 0 of a ``WaveContext`` value as the Python value a lane
    holds: a multi-probe's ``(rows, counts)`` becomes lane 0's list of
    matches plus its count."""
    if isinstance(reply, tuple):
        rows, counts = reply
        count = counts.tolist()[0]
        return rows.tolist()[0][:count], count
    if isinstance(reply, np.ndarray):
        return reply.tolist()[0]
    return reply


def answered_by(adapter, stream, seen):
    """``stream`` with every probe, read and insert answered by a real
    store: ``validate_two_phase`` feeds one constant to every op, and
    no constant is both a unique probe's row and a multi-index probe's
    row list. Writes and deletes are not applied; ``seen`` collects
    the ops."""
    answer = None
    while True:
        try:
            op = stream.send(answer)
        except StopIteration:
            return
        seen.append(op)
        yield op
        if op.kind == op_ir.READ:
            answer = adapter.read(op.table, op.column, op.row)
        elif op.kind == op_ir.INDEX_PROBE:
            answer = adapter.probe(op.index, op.key)
        elif op.kind == op_ir.INSERT_ROW:
            answer = adapter.insert(op.table, op.values)
        else:
            answer = None


class TestTwoPhaseOnLaneStreams:
    def test_tpcc_types_are_two_phase(self):
        """Every TPC-C type, on its commit path and on each abort path
        the generator can reach (invalid item, unknown customer, name
        without a customer, district with nothing to deliver)."""
        db = tpcc.build_database(
            1, customers_per_district=4, n_items=16,
            init_orders_per_district=3, seed=2,
        )
        adapter = StoreAdapter(db)
        by_name = {t.name: t for t in tpcc.PROCEDURES}
        cases = [
            ("tpcc_new_order", (0, 1, 2, (1, 2), (0, 0), (3, 4)), True),
            ("tpcc_new_order", (0, 1, 2, (1, 99), (0, 0), (3, 4)), False),
            ("tpcc_new_order", (0, 1, 77, (1, 2), (0, 0), (3, 4)), False),
            ("tpcc_payment", (0, 1, 0, 1, 2, 10.0), True),
            ("tpcc_payment", (0, 1, 0, 1, 77, 10.0), False),
            ("tpcc_customer_by_name", (0, 1, "NO-SUCH-NAME"), False),
            ("tpcc_order_status", (0, 1, 77), False),
            ("tpcc_delivery", (0, 1, 5), True),
            ("tpcc_stock_level", (0, 1, 15), True),
        ]
        name = db.table(tpcc.CUSTOMER).read("c_last", 0)
        cases.append(("tpcc_customer_by_name", (0, 1, name), True))
        order = next(
            r for r in range(db.table(tpcc.ORDERS).n_rows)
            if db.table(tpcc.ORDERS).read("o_d_id", r) == 1
        )
        c_id = db.table(tpcc.ORDERS).read("o_c_id", order)
        cases.append(("tpcc_order_status", (0, 1, c_id), True))
        for type_name, params, commits in cases:
            proc = by_name[type_name]
            assert proc.two_phase
            ops = []
            assert validate_two_phase(
                answered_by(adapter, proc.body(*params), ops), feed=0
            ), (type_name, params)
            aborted = any(op.kind == op_ir.ABORT for op in ops)
            assert aborted != commits, (type_name, params)
