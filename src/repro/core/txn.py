"""Transactions, the transaction pool, and the result pool.

A transaction in GPUTx is an *instance of a registered transaction
type* with parameter values (Section 3.1): its signature is
``<id, type, parameter value list>`` where the auto-increment ``id``
doubles as the submission timestamp (Section 3.2). Users submit
signatures into a :class:`TransactionPool`; the engine periodically
generates a bulk from the pool; results land in a
:class:`ResultPool` and are returned to users.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections import Counter
from itertools import chain, compress, groupby, islice, repeat
from operator import attrgetter, eq, lt
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence
from typing import Tuple, Union

from repro.errors import ProcedureError, check_int


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
    passes over the bulk's parameters instead of a call per row."""
    # Two streamed passes: a transient list of every parameter (or a
    # tee) measurably raised the wide bulks' peak RSS.
    def flat() -> Iterator[Any]:
        return chain.from_iterable(map(attrgetter("params"), transactions))

    sized = list(compress(flat(), map(isinstance, flat(), repeat((str, bytes)))))
    n_params = sum(map(len, map(attrgetter("params"), transactions)))
    return 12 * len(transactions) + 8 * (n_params - len(sized)) + sum(map(len, sized))


@dataclass(frozen=True)
class TxnResult:
    """Outcome of one executed transaction."""

    txn_id: int
    type_name: str
    committed: bool
    abort_reason: str = ""
    value: Any = None

    def result_bytes(self) -> int:
        """Approximate size of the result copied back to the host."""
        return 8 + 1 + _value_bytes(self.value)


def _value_bytes(value: Any) -> int:
    """Bytes of a result value, on top of its row's id and flag."""
    if isinstance(value, (list, tuple)):
        return 8 * len(value)
    return 0 if value is None else 8


@dataclass(eq=False)
class ResultColumns(Sequence[TxnResult]):
    """A bulk's outcomes as five parallel lists: what every executor
    returns as ``results``. A :class:`TxnResult` is built only when a
    caller reads one (an int index; a slice gives columns), and the
    record equals any sequence of equal rows (``results == []``)."""

    txn_id: List[int] = field(default_factory=list)
    type_name: List[str] = field(default_factory=list)
    committed: List[bool] = field(default_factory=list)
    abort_reason: List[str] = field(default_factory=list)
    value: List[Any] = field(default_factory=list)

    @classmethod
    def of(cls, rows: Iterable[TxnResult]) -> "ResultColumns":
        """Columns of ready-made rows (tests, hand-built results)."""
        rows = list(rows)
        return cls(*([getattr(r, f.name) for r in rows] for f in fields(TxnResult)))

    def _columns(self) -> Tuple[List[Any], ...]:
        return (
            self.txn_id, self.type_name, self.committed, self.abort_reason,
            self.value,
        )

    def __len__(self) -> int:
        return len(self.txn_id)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ResultColumns(*(col[i] for col in self._columns()))
        return TxnResult(*(col[i] for col in self._columns()))

    def __iter__(self) -> Iterator[TxnResult]:
        return map(TxnResult, *self._columns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def extend(self, other: "ResultColumns") -> None:
        """Append ``other``'s rows (concatenation in place)."""
        self.txn_id += other.txn_id
        self.type_name += other.type_name
        self.committed += other.committed
        self.abort_reason += other.abort_reason
        self.value += other.value

    def take(self, positions: Sequence[int]) -> "ResultColumns":
        """The rows at ``positions``, in that order."""
        return ResultColumns(
            *(list(map(col.__getitem__, positions)) for col in self._columns())
        )

    def sorted_by_id(self) -> "ResultColumns":
        """The rows in transaction-id order (``self`` when already)."""
        ids = self.txn_id
        if all(map(lt, ids, islice(ids, 1, None))):
            return self
        return self.take(sorted(range(len(ids)), key=ids.__getitem__))

    def committed_count(self) -> int:
        return self.committed.count(True)

    def result_bytes(self) -> int:
        """``sum(TxnResult.result_bytes)`` over the rows."""
        return (8 + 1) * len(self) + sum(map(_value_bytes, self.value))


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
    """FIFO pool of submitted-but-unexecuted transaction signatures.

    Ids are handed out in submission order, so iterating the pool is
    iterating in timestamp order.
    """

    def __init__(self) -> None:
        self._pending: List[Transaction] = []
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
        txn = Transaction(
            txn_id=self._next_id,
            type_name=type_name,
            params=tuple(params),
            submit_time=submit_time,
        )
        self._next_id += 1
        self._pending.append(txn)
        return txn

    def submit_batch(
        self,
        items: Iterable[Tuple[str, tuple, float]],
    ) -> List[Transaction]:
        """Stamp a batch of ``(type, params, submit_time)`` triples in
        order -- one append and one id-range grab instead of per-item
        calls (the serving front half admits arrival slices this way)."""
        base = self._next_id
        txns = [
            Transaction(base + i, type_name, tuple(params), submit_time)
            for i, (type_name, params, submit_time) in enumerate(items)
        ]
        self._next_id = base + len(txns)
        self._pending.extend(txns)
        return txns

    def submit_specs(
        self,
        specs: Iterable[
            "Union[Transaction, Tuple[str, tuple], Tuple[str, tuple, float]]"
        ],
    ) -> int:
        """Admit a mixed stream of pre-built transactions, ``(type,
        params)`` pairs, or ``(type, params, submit_time)`` triples;
        returns how many were submitted. Each run of pairs/triples is
        stamped by one :meth:`submit_batch` call."""
        count = 0
        for prebuilt, run in groupby(
            specs, key=lambda item: isinstance(item, Transaction)
        ):
            if prebuilt:
                for txn in run:
                    self.submit_transaction(txn)
                    count += 1
            else:
                count += len(
                    self.submit_batch(
                        (item[0], item[1], item[2] if len(item) == 3 else 0.0)
                        for item in run
                    )
                )
        return count

    def submit_transaction(self, txn: Transaction) -> Transaction:
        """Admit an externally built transaction (id must be fresh)."""
        if txn.txn_id < self._next_id:
            raise ProcedureError(
                f"transaction id {txn.txn_id} is not monotonically increasing"
            )
        self._next_id = txn.txn_id + 1
        self._pending.append(txn)
        return txn

    def take(self, n: Optional[int] = None) -> List[Transaction]:
        """Remove and return up to ``n`` oldest transactions (all if
        None); ``n`` is an int >= 0, anything else a ConfigError."""
        if n is not None:
            n = check_int("max_txns", n, minimum=0)
        if n is None or n >= len(self._pending):
            out, self._pending = self._pending, []
            return out
        out = self._pending[:n]
        del self._pending[:n]
        return out

    def take_matching(self, txn_ids: Iterable[int]) -> List[Transaction]:
        """Remove and return the pool entries with the given ids."""
        wanted = set(txn_ids)
        taken = [t for t in self._pending if t.txn_id in wanted]
        if taken:
            self._pending = [t for t in self._pending if t.txn_id not in wanted]
        return taken

    def peek(self, n: Optional[int] = None) -> List[Transaction]:
        """Oldest ``n`` transactions without removing them (``n`` as
        in :meth:`take`)."""
        if n is None:
            return list(self._pending)
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
        self._pending.sort(key=lambda t: t.timestamp)


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
