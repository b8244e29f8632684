"""Transactions, the transaction pool, and the result pool.

A transaction in GPUTx is an *instance of a registered transaction
type* with parameter values (Section 3.1): its signature is
``<id, type, parameter value list>`` where the auto-increment ``id``
doubles as the submission timestamp (Section 3.2). Users submit
signatures into a :class:`TransactionPool`; the engine periodically
generates a bulk from the pool; results land in a
:class:`ResultPool` and are returned to users.

Both ends of a bulk are columns: the pool hands out a
:class:`TransactionColumns` and every executor returns a
:class:`ResultColumns`. A :class:`Transaction` or :class:`TxnResult`
row is built only when someone indexes one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections import Counter
from itertools import chain, compress, groupby, islice, repeat
from operator import eq, is_, itemgetter, lt, not_
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence
from typing import Tuple, TypeVar, Union

import numpy as np

from repro.errors import ProcedureError, check_int

Row = TypeVar("Row")


@dataclass(frozen=True)
class Transaction:
    """A transaction signature: ``<id, type, parameter values>``.

    ``txn_id`` is unique, auto-increment, and *is* the timestamp used
    by the correctness definition (Definition 1) and the T-dependency
    graph. ``submit_time`` optionally carries the wall-clock submission
    instant for response-time experiments (Figures 9, 15).
    """

    txn_id: int
    type_name: str
    params: Tuple[Any, ...]
    submit_time: float = 0.0

    @property
    def timestamp(self) -> int:
        return self.txn_id

    def signature_bytes(self) -> int:
        """Approximate wire size of the signature (id + type + params)."""
        size = 8 + 4
        for p in self.params:
            size += len(p) if isinstance(p, (str, bytes)) else 8
        return size


def signatures_bytes(transactions: Sequence[Transaction]) -> int:
    """``sum(t.signature_bytes() for t in transactions)``, in a few
    passes over the bulk's parameter column instead of a call per row."""
    params = TransactionColumns.of(transactions).params
    # Two streamed passes: a transient list of every parameter (or a
    # tee) measurably raised the wide bulks' peak RSS.
    sized = list(compress(
        chain.from_iterable(params),
        map(isinstance, chain.from_iterable(params), repeat((str, bytes))),
    ))
    n_params = sum(map(len, params))
    return 12 * len(params) + 8 * (n_params - len(sized)) + sum(map(len, sized))


@dataclass(frozen=True)
class TxnResult:
    """Outcome of one executed transaction."""

    txn_id: int
    type_name: str
    committed: bool
    abort_reason: str = ""
    value: Any = None

    def result_bytes(self) -> int:
        """Approximate size of the result copied back to the host: the
        id and flag, plus 8 bytes per item of a list or tuple value, or
        8 for any other value but ``None``."""
        if isinstance(self.value, (list, tuple)):
            return 9 + 8 * len(self.value)
        return 9 if self.value is None else 17


class _Columns(Sequence[Row]):
    """Parallel lists, one per field of the row class ``_row`` and in
    its field order (the subclass is a dataclass of those lists). A
    row is built only when a caller indexes one with an int; a slice or
    :meth:`take` gives columns, and the record equals any sequence of
    equal rows (``columns == []``)."""

    _row: Any
    txn_id: List[int]

    @classmethod
    def of(cls, rows: Iterable[Row]):
        """``rows`` as columns: itself when it already is."""
        if isinstance(rows, cls):
            return rows
        rows = list(rows)
        return cls(*([getattr(r, f.name) for r in rows] for f in fields(cls._row)))

    @classmethod
    def concat(cls, parts: Iterable[Iterable[Row]]):
        """One record of ``parts``' rows, one part after another."""
        out = cls()
        for part in parts:
            out.extend(part)
        return out

    def _columns(self) -> Tuple[List[Any], ...]:
        return tuple(vars(self).values())

    def __len__(self) -> int:
        return len(self.txn_id)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(*(col[i] for col in self._columns()))
        return self._row(*(col[i] for col in self._columns()))

    def __iter__(self) -> Iterator[Row]:
        return map(self._row, *self._columns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def extend(self, other: Iterable[Row]) -> None:
        """Append ``other``'s rows (concatenation in place)."""
        for mine, theirs in zip(self._columns(), self.of(other)._columns()):
            mine += theirs

    def take(self, positions: Iterable[int]):
        """The rows at ``positions``, in that order."""
        positions = list(positions)
        return type(self)(
            *(list(map(col.__getitem__, positions)) for col in self._columns())
        )

    def sorted_by_id(self):
        """The rows in transaction-id order (``self`` when already)."""
        ids = self.txn_id
        if all(map(lt, ids, islice(ids, 1, None))):
            return self
        return self.take(sorted(range(len(ids)), key=ids.__getitem__))


@dataclass(eq=False)
class TransactionColumns(_Columns[Transaction]):
    """A bulk's signatures as four parallel lists: what the pool hands
    out and every layer below reads (:class:`_Columns` for the row
    view)."""

    _row = Transaction
    txn_id: List[int] = field(default_factory=list)
    type_name: List[str] = field(default_factory=list)
    params: List[Tuple[Any, ...]] = field(default_factory=list)
    submit_time: List[float] = field(default_factory=list)

    def by_type(self) -> List[Tuple[str, np.ndarray]]:
        """``(type name, ascending positions)`` per distinct type, in
        the order the types first appear."""
        names = self.type_name
        code = {name: i for i, name in enumerate(dict.fromkeys(names))}
        codes = np.fromiter(map(code.__getitem__, names), np.int64, len(names))
        order = np.argsort(codes, kind="stable")
        bounds = [0, *np.cumsum(np.bincount(codes)).tolist()]
        return [(name, order[a:b]) for name, a, b in zip(code, bounds, bounds[1:])]


@dataclass(eq=False)
class ResultColumns(_Columns[TxnResult]):
    """A bulk's outcomes as five parallel lists: what every executor
    returns as ``results`` (:class:`_Columns` for the row view)."""

    _row = TxnResult
    txn_id: List[int] = field(default_factory=list)
    type_name: List[str] = field(default_factory=list)
    committed: List[bool] = field(default_factory=list)
    abort_reason: List[str] = field(default_factory=list)
    value: List[Any] = field(default_factory=list)

    def committed_count(self) -> int:
        return self.committed.count(True)

    def result_bytes(self) -> int:
        """``sum(TxnResult.result_bytes)`` over the rows, counted in
        C-level passes: 8 bytes per scalar value and per item of a
        list or tuple value, none for ``None``."""
        values = self.value
        seqs = list(compress(values, map(isinstance, values, repeat((list, tuple)))))
        scalars = len(values) - sum(map(is_, values, repeat(None))) - len(seqs)
        return 9 * len(values) + 8 * (scalars + sum(map(len, seqs)))


class BulkOutcome:
    """The scalar summary every bulk result reports.

    Base of the engine's ``ExecutionResult``, the cluster's
    ``ClusterExecutionResult`` and the CPU counterpart's
    ``CpuExecutionResult``: each is a dataclass holding per-transaction
    ``results`` (:class:`ResultColumns`) and a phase ``breakdown``
    (:class:`~repro.gpu.costmodel.TimeBreakdown`); what is derived
    from those two is defined here, once.
    """

    results: ResultColumns

    @property
    def seconds(self) -> float:
        return self.breakdown.total  # type: ignore[attr-defined]

    @property
    def committed(self) -> int:
        return self.results.committed_count()

    @property
    def aborted(self) -> int:
        return len(self.results) - self.results.committed_count()

    def throughput_tps(self, count_aborts: bool = True) -> float:
        """Transactions per second of this bulk execution."""
        n = len(self.results) if count_aborts else self.committed
        seconds = self.seconds
        return n / seconds if seconds > 0 else 0.0

    @property
    def throughput_ktps(self) -> float:
        """The paper's unit: thousands of transactions per second."""
        return self.throughput_tps() / 1e3


class TransactionPool:
    """FIFO pool of submitted-but-unexecuted transaction signatures,
    kept as one :class:`TransactionColumns`.

    Ids are handed out in submission order, so iterating the pool is
    iterating in timestamp order.
    """

    def __init__(self) -> None:
        self._pending = TransactionColumns()
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._pending)

    def submit(
        self,
        type_name: str,
        params: Iterable[Any],
        submit_time: float = 0.0,
    ) -> Transaction:
        """Register one signature; returns the stamped transaction."""
        return self.submit_batch(((type_name, params, submit_time),))[0]

    def submit_batch(
        self,
        items: Iterable[Tuple[str, tuple, float]],
    ) -> TransactionColumns:
        """Stamp a batch of ``(type, params, submit_time)`` triples in
        order -- one id range and one extend per column (the serving
        front half admits arrival slices this way); returns the
        stamped columns."""
        items = list(items)
        if set(map(len, items)) - {3}:
            raise ValueError("submit_batch takes (type, params, submit_time) triples")
        return self._stamp(
            list(map(itemgetter(0), items)),
            list(map(itemgetter(1), items)),
            list(map(itemgetter(2), items)),
        )

    def _stamp(
        self, names: List[str], params: List[Any], times: List[float]
    ) -> TransactionColumns:
        base = self._next_id
        new = TransactionColumns(
            list(range(base, base + len(names))), names,
            list(map(tuple, params)), times,
        )
        self._next_id = base + len(names)
        for mine, theirs in zip(self._pending._columns(), new._columns()):
            mine += theirs
        return new

    def submit_specs(
        self,
        specs: Iterable[
            "Union[Transaction, Tuple[str, tuple], Tuple[str, tuple, float]]"
        ],
    ) -> int:
        """Admit a mixed stream of pre-built transactions, ``(type,
        params)`` pairs, or ``(type, params, submit_time)`` triples;
        returns how many were submitted. Each run of pairs/triples is
        stamped as columns in one go."""
        specs = list(specs)
        runs: Iterable[Tuple[bool, Iterable[Any]]] = [(False, specs)]
        if any(map(isinstance, specs, repeat(Transaction))):
            runs = groupby(specs, key=lambda item: isinstance(item, Transaction))
        for prebuilt, run in runs:
            if prebuilt:
                for txn in run:
                    self.submit_transaction(txn)
                continue
            run = list(run)
            times = [0.0] * len(run)
            if set(map(len, run)) - {2}:
                times = [item[2] if len(item) == 3 else 0.0 for item in run]
            self._stamp(
                list(map(itemgetter(0), run)), list(map(itemgetter(1), run)),
                times,
            )
        return len(specs)

    def submit_transaction(self, txn: Transaction) -> Transaction:
        """Admit an externally built transaction (id must be fresh)."""
        if txn.txn_id < self._next_id:
            raise ProcedureError(
                f"transaction id {txn.txn_id} is not monotonically increasing"
            )
        self._next_id = txn.txn_id + 1
        self._pending.extend((txn,))
        return txn

    def take(self, n: Optional[int] = None) -> TransactionColumns:
        """Remove and return up to ``n`` oldest transactions (all if
        None); ``n`` is an int >= 0, anything else a ConfigError."""
        pending = self._pending
        if n is not None:
            n = check_int("max_txns", n, minimum=0)
        if n is None or n >= len(pending):
            self._pending = TransactionColumns()
            return pending
        self._pending = pending[n:]
        return pending[:n]

    def take_matching(self, txn_ids: Iterable[int]) -> TransactionColumns:
        """Remove and return the pool entries with the given ids."""
        hit = list(map(set(txn_ids).__contains__, self._pending.txn_id))
        if not any(hit):
            return TransactionColumns()
        at = range(len(hit))
        taken = self._pending.take(compress(at, hit))
        self._pending = self._pending.take(compress(at, map(not_, hit)))
        return taken

    def peek(self, n: Optional[int] = None) -> TransactionColumns:
        """Oldest ``n`` transactions without removing them (``n`` as
        in :meth:`take`)."""
        if n is None:
            return self._pending[:]
        return self._pending[: check_int("max_txns", n, minimum=0)]

    def requeue(self, transactions: Iterable[Transaction]) -> None:
        """Return deferred transactions to the pool.

        Used by the streaming K-SET mode (Section 5.3) and the
        cluster's halted-bulk failover path: transactions whose turn
        has not come keep their original ids/timestamps and re-enter
        ahead of younger work. The pool is re-sorted by *timestamp*
        (:attr:`Transaction.timestamp`, the Definition-1 ordering
        key) so iteration order remains timestamp order -- never by
        wall-clock ``submit_time``, which arrives in any order.
        """
        self._pending.extend(transactions)
        self._pending = self._pending.sorted_by_id()


class ResultPool:
    """Collected outcomes: the recorded bulks' columns, one after
    another, plus a ``txn_id -> position`` map."""

    def __init__(self) -> None:
        self._rows = ResultColumns()
        self._position: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._position)

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self._position

    def __iter__(self) -> Iterator[TxnResult]:
        """Every recorded row, in recording order."""
        return iter(self._rows)

    def record(self, result: TxnResult) -> None:
        self.record_many(ResultColumns.of([result]))

    def record_many(self, results: ResultColumns) -> None:
        """Record a bulk's rows -- all of them, or none when any id is
        already recorded or repeats within ``results``."""
        start = len(self._rows)
        ids = results.txn_id
        position = dict(zip(ids, range(start, start + len(ids))))
        # The pool's keys view iterates ``position``, not the pool.
        if len(position) < len(ids) or not self._position.keys().isdisjoint(
            position
        ):
            counts = Counter(chain(self._position, ids))
            dup = next(txn_id for txn_id in ids if counts[txn_id] > 1)
            raise ProcedureError(f"duplicate result for transaction {dup}")
        self._rows.extend(results)
        self._position.update(position)

    def get(self, txn_id: int) -> Optional[TxnResult]:
        at = self._position.get(txn_id)
        return None if at is None else self._rows[at]

    @property
    def committed_count(self) -> int:
        return self._rows.committed_count()

    @property
    def aborted_count(self) -> int:
        return len(self._rows) - self._rows.committed_count()

    def output_bytes(self) -> int:
        """Total result bytes copied device -> host."""
        return self._rows.result_bytes()

    def clear(self) -> None:
        self._rows = ResultColumns()
        self._position.clear()
