"""The column transaction pool against a per-row reference pool.

:class:`~repro.core.txn.TransactionPool` keeps its pending signatures
as one :class:`~repro.core.txn.TransactionColumns` (four lists) and
hands bulks out as columns. :class:`RowPool` below is the pool as it
was when it kept one frozen :class:`Transaction` per signature. Random
op sequences -- ``submit``, ``submit_batch``, ``submit_specs`` over
rows, pairs and triples, ``submit_transaction`` with stale ids,
``take``/``peek`` with good and bad sizes, ``take_matching`` and
``requeue`` of any subset of what was taken -- run against both: every
return value, every raised error and the pending rows must agree after
each op.

The record itself is checked too: equality with a list both ways,
indexing and slicing, ``take`` and ``extend``.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.txn import Transaction, TransactionColumns, TransactionPool
from repro.errors import ProcedureError, check_int


class RowPool:
    """The per-row pool: one ``Transaction`` per submitted signature."""

    def __init__(self) -> None:
        self._pending: List[Transaction] = []
        self._next_id = 0

    def rows(self) -> List[Transaction]:
        return list(self._pending)

    def submit(self, type_name, params, submit_time=0.0) -> Transaction:
        txn = Transaction(self._next_id, type_name, tuple(params), submit_time)
        self._next_id += 1
        self._pending.append(txn)
        return txn

    def submit_batch(self, items) -> List[Transaction]:
        base = self._next_id
        txns = [
            Transaction(base + i, name, tuple(params), submit_time)
            for i, (name, params, submit_time) in enumerate(items)
        ]
        self._next_id = base + len(txns)
        self._pending.extend(txns)
        return txns

    def submit_specs(self, specs) -> int:
        count = 0
        for prebuilt, run in groupby(
            specs, key=lambda item: isinstance(item, Transaction)
        ):
            if prebuilt:
                for txn in run:
                    self.submit_transaction(txn)
                    count += 1
            else:
                count += len(self.submit_batch(
                    (item[0], item[1], item[2] if len(item) == 3 else 0.0)
                    for item in run
                ))
        return count

    def submit_transaction(self, txn: Transaction) -> Transaction:
        if txn.txn_id < self._next_id:
            raise ProcedureError(
                f"transaction id {txn.txn_id} is not monotonically increasing"
            )
        self._next_id = txn.txn_id + 1
        self._pending.append(txn)
        return txn

    def take(self, n: Optional[int] = None) -> List[Transaction]:
        if n is not None:
            n = check_int("max_txns", n, minimum=0)
        if n is None or n >= len(self._pending):
            out, self._pending = self._pending, []
            return out
        out = self._pending[:n]
        del self._pending[:n]
        return out

    def take_matching(self, txn_ids) -> List[Transaction]:
        wanted = set(txn_ids)
        taken = [t for t in self._pending if t.txn_id in wanted]
        self._pending = [t for t in self._pending if t.txn_id not in wanted]
        return taken

    def peek(self, n: Optional[int] = None) -> List[Transaction]:
        if n is None:
            return list(self._pending)
        return self._pending[: check_int("max_txns", n, minimum=0)]

    def requeue(self, transactions) -> None:
        self._pending.extend(transactions)
        self._pending.sort(key=lambda t: t.timestamp)


NAMES = st.sampled_from(["deposit", "audit", "transfer"])
PARAMS = st.lists(
    st.integers(-5, 5) | st.text(max_size=2), max_size=3
).map(tuple)
TIMES = st.floats(0, 10, allow_nan=False)
SIZES = st.none() | st.integers(-2, 12) | st.sampled_from([1.5, "3", True])


@st.composite
def specs(draw, next_id: int):
    """A ``submit_specs`` stream: pairs, triples and fresh rows."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair", "triple", "row"]))
        if kind == "pair":
            out.append((draw(NAMES), draw(PARAMS)))
        elif kind == "triple":
            out.append((draw(NAMES), draw(PARAMS), draw(TIMES)))
        else:
            next_id += draw(st.integers(0, 3)) + len(out)
            out.append(
                Transaction(next_id, draw(NAMES), draw(PARAMS), draw(TIMES))
            )
    return out


def same_outcome(call_columns, call_rows):
    """Both calls return equal values or raise the same error."""
    try:
        want = call_rows()
    except Exception as exc:  # the reference's error is the contract
        with pytest.raises(type(exc)) as got:
            call_columns()
        assert str(got.value) == str(exc)
        return None
    got = call_columns()
    if isinstance(want, list):
        assert isinstance(got, TransactionColumns)
        assert got == want and want == got
        assert list(got) == want
    else:
        assert got == want
    return got


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_column_pool_behaves_as_the_row_pool(data):
    pool, ref = TransactionPool(), RowPool()
    taken: List[Transaction] = []
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from([
            "submit", "batch", "specs", "transaction", "take", "peek",
            "matching", "requeue",
        ]))
        if op == "submit":
            args = (
                data.draw(NAMES), list(data.draw(PARAMS)), data.draw(TIMES)
            )
            same_outcome(lambda: pool.submit(*args), lambda: ref.submit(*args))
        elif op == "batch":
            items = data.draw(
                st.lists(st.tuples(NAMES, PARAMS, TIMES), max_size=5)
            )
            same_outcome(
                lambda: pool.submit_batch(iter(items)),
                lambda: ref.submit_batch(iter(items)),
            )
        elif op == "specs":
            stream = data.draw(specs(ref._next_id - 2))
            same_outcome(
                lambda: pool.submit_specs(iter(stream)),
                lambda: ref.submit_specs(iter(stream)),
            )
        elif op == "transaction":
            txn = Transaction(
                ref._next_id + data.draw(st.integers(-3, 3)),
                data.draw(NAMES), data.draw(PARAMS),
            )
            same_outcome(
                lambda: pool.submit_transaction(txn),
                lambda: ref.submit_transaction(txn),
            )
        elif op in ("take", "peek"):
            n = data.draw(SIZES)
            got = same_outcome(
                lambda: getattr(pool, op)(n), lambda: getattr(ref, op)(n)
            )
            if op == "take" and got is not None:
                taken.extend(got)
        elif op == "matching":
            ids = data.draw(
                st.lists(st.integers(-1, ref._next_id + 1), max_size=6)
            )
            taken.extend(same_outcome(
                lambda: pool.take_matching(ids), lambda: ref.take_matching(ids)
            ))
        else:
            back = data.draw(st.lists(
                st.sampled_from(taken), unique_by=lambda t: t.txn_id
            )) if taken else []
            as_columns = data.draw(st.booleans())
            pool.requeue(TransactionColumns.of(back) if as_columns else back)
            ref.requeue(back)
            taken = [t for t in taken if t not in back]
        assert pool.peek() == ref.rows() and len(pool) == len(ref.rows())
        assert list(pool) == ref.rows()
    # Both hand out the same next id.
    assert pool.submit("audit", ()) == ref.submit("audit", ())


ROWS = st.lists(
    st.builds(Transaction, st.integers(0, 50), NAMES, PARAMS, TIMES),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(ROWS, ROWS, st.data())
def test_the_record_reads_as_its_rows(rows, more, data):
    cols = TransactionColumns.of(rows)
    assert TransactionColumns.of(cols) is cols
    assert cols == rows and rows == cols and cols == tuple(rows)
    assert len(cols) == len(rows) and list(cols) == rows
    for i in range(-len(rows), len(rows)):
        assert cols[i] == rows[i]
    window = slice(
        data.draw(st.integers(-14, 14) | st.none()),
        data.draw(st.integers(-14, 14) | st.none()),
        data.draw(st.sampled_from([None, 1, 2, -1, -3])),
    )
    assert isinstance(cols[window], TransactionColumns)
    assert cols[window] == rows[window]
    positions = data.draw(
        st.lists(st.integers(0, len(rows) - 1), max_size=8)
    ) if rows else []
    assert cols.take(positions) == [rows[i] for i in positions]
    cols.extend(more)
    assert cols == rows + more
    cols.extend(TransactionColumns.of(more))
    assert cols == rows + more + more
    assert cols.sorted_by_id() == sorted(cols, key=lambda t: t.txn_id)
    if rows:
        assert cols != list(cols)[:-1]
        assert cols != list(cols)[:-1] + [Transaction(-1, "x", ())]
