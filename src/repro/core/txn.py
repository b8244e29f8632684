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

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import ProcedureError


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
        size = 8 + 1
        value = self.value
        if isinstance(value, (list, tuple)):
            size += 8 * len(value)
        elif value is not None:
            size += 8
        return size


class BulkOutcome:
    """The scalar summary every bulk result reports.

    Base of the engine's ``ExecutionResult``, the cluster's
    ``ClusterExecutionResult`` and the CPU counterpart's
    ``CpuExecutionResult``: each is a dataclass holding per-transaction
    ``results`` and a phase ``breakdown``
    (:class:`~repro.gpu.costmodel.TimeBreakdown`); what is derived
    from those two is defined here, once.
    """

    results: List[TxnResult]

    @property
    def seconds(self) -> float:
        return self.breakdown.total  # type: ignore[attr-defined]

    @property
    def committed(self) -> int:
        return sum(1 for r in self.results if r.committed)

    @property
    def aborted(self) -> int:
        return sum(1 for r in self.results if not r.committed)

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
            Transaction(
                txn_id=base + i,
                type_name=type_name,
                params=tuple(params),
                submit_time=submit_time,
            )
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
        """Remove and return up to ``n`` oldest transactions (all if None)."""
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
        """Oldest ``n`` transactions without removing them."""
        if n is None:
            return list(self._pending)
        return self._pending[:n]

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
    """Collected outcomes, keyed by transaction id."""

    def __init__(self) -> None:
        self._results: Dict[int, TxnResult] = {}

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self._results

    def record(self, result: TxnResult) -> None:
        if result.txn_id in self._results:
            raise ProcedureError(
                f"duplicate result for transaction {result.txn_id}"
            )
        self._results[result.txn_id] = result

    def record_many(self, results: Iterable[TxnResult]) -> None:
        for result in results:
            self.record(result)

    def get(self, txn_id: int) -> Optional[TxnResult]:
        return self._results.get(txn_id)

    @property
    def committed_count(self) -> int:
        return sum(1 for r in self._results.values() if r.committed)

    @property
    def aborted_count(self) -> int:
        return sum(1 for r in self._results.values() if not r.committed)

    def output_bytes(self) -> int:
        """Total result bytes copied device -> host."""
        return sum(r.result_bytes() for r in self._results.values())

    def clear(self) -> None:
        self._results.clear()
