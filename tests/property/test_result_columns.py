"""The column results against a dict-of-rows oracle.

A bulk's outcomes travel as columns -- :class:`OutcomeColumns` out of a
launch, :class:`ResultColumns` out of an executor and into the
:class:`ResultPool` -- and a row object is built only when someone
reads one. Random blocks of rows (committed and aborted, reasons,
values of ``None``, scalars, tuples and lists, ids out of order across
blocks) are checked against the plain rows they stand for: indexing,
slicing, iteration, ``==`` both ways, ``sorted_by_id``, the counts, the
result bytes that feed the simulated transfer clock, and the pool's
``get``/``in``/``len``/iteration.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.txn import ResultColumns, ResultPool, TxnResult
from repro.gpu.simt import OutcomeColumns, ThreadOutcome

VALUES = st.one_of(
    st.none(),
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.text(max_size=3),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.lists(st.integers(0, 9), max_size=4),
)
REASONS = st.sampled_from(["", "x", "insufficient funds"])


@st.composite
def blocks(draw):
    """Blocks of rows with unique ids in a random order across them."""
    ids = draw(st.lists(st.integers(0, 5_000), unique=True, max_size=40))
    ids = draw(st.permutations(ids))
    rows = [
        TxnResult(
            txn_id,
            draw(st.sampled_from(["a", "b"])),
            draw(st.booleans()),
            draw(REASONS),
            draw(VALUES),
        )
        for txn_id in ids
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    bounds = [0, *cuts, len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def columns(rows):
    """Columns built the way executors build them: one list each."""
    return ResultColumns(
        [r.txn_id for r in rows], [r.type_name for r in rows],
        [r.committed for r in rows], [r.abort_reason for r in rows],
        [r.value for r in rows],
    )


@settings(max_examples=150, deadline=None)
@given(blocks(), st.data())
def test_result_columns_read_as_their_rows(parts, data):
    rows = [r for part in parts for r in part]
    cols = ResultColumns()
    for part in parts:
        cols.extend(columns(part))
    assert cols == rows and rows == cols
    assert cols == ResultColumns.of(rows) == tuple(rows)
    assert len(cols) == len(rows) and list(cols) == rows
    for i in range(-len(rows), len(rows)):
        assert cols[i] == rows[i]
    window = slice(
        data.draw(st.integers(-45, 45) | st.none()),
        data.draw(st.integers(-45, 45) | st.none()),
        data.draw(st.sampled_from([None, 1, 2, -1, -3])),
    )
    assert isinstance(cols[window], ResultColumns)
    assert cols[window] == rows[window]
    assert cols.sorted_by_id() == sorted(rows, key=lambda r: r.txn_id)
    assert cols.committed_count() == sum(r.committed for r in rows)
    assert cols.result_bytes() == sum(r.result_bytes() for r in rows)
    if rows:
        other = rows[:-1] + [TxnResult(-1, "a", True)]
        assert cols != other and cols != rows[:-1]


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_result_pool_reads_as_a_dict_of_rows(parts):
    pool = ResultPool()
    oracle = {}
    for part in parts:
        pool.record_many(columns(part))
        oracle.update((r.txn_id, r) for r in part)
    assert len(pool) == len(oracle)
    assert list(pool) == list(oracle.values())
    for txn_id, row in oracle.items():
        assert txn_id in pool and pool.get(txn_id) == row
    assert -1 not in pool and pool.get(-1) is None
    assert pool.committed_count == sum(r.committed for r in oracle.values())
    assert pool.aborted_count == len(oracle) - pool.committed_count
    assert pool.output_bytes() == sum(
        r.result_bytes() for r in oracle.values()
    )


UNDO = st.lists(
    st.tuples(st.just("t"), st.just("v"), st.integers(0, 9), st.integers()),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.builds(
            ThreadOutcome,
            st.integers(0, 99), st.integers(-1, 3), st.booleans(), REASONS,
            VALUES, UNDO,
        ),
        max_size=40,
    )
)
def test_outcome_record_reads_as_its_rows(rows):
    record = OutcomeColumns(
        [o.txn_id for o in rows], [o.type_id for o in rows],
        [o.committed for o in rows], [o.abort_reason for o in rows],
        [o.result for o in rows],
        {t: o.undo for t, o in enumerate(rows) if o.undo},
    )
    assert record == rows and rows == record
    assert list(record) == rows and record[::2] == rows[::2]
    for i in range(-len(rows), len(rows)):
        assert record[i] == rows[i]
    assert list(record.undo) == [t for t, o in enumerate(rows) if o.undo]
    assert record.aborted_count() == sum(not o.committed for o in rows)
    if rows:
        flipped = ThreadOutcome(
            rows[0].txn_id, rows[0].type_id, not rows[0].committed,
            rows[0].abort_reason, rows[0].result, rows[0].undo,
        )
        assert record != [flipped, *rows[1:]]
