"""The operation array: one bulk's declared footprint (Section 4.2).

The paper builds *one* sorted array of basic operations per bulk and
reads it for everything: profiling (Appendix D), TPL's lock keys
(Section 5.1), K-SET's 0-sets (Section 5.3). :class:`OpArray` is that
array. :meth:`OpArray.of_bulk` is the only place the engine and
cluster paths ask a transaction type for its access set or partition
-- once per type in the bulk: a keyed declaration
(:class:`~repro.core.procedure.KeyedAccess`) answers a whole key
column, any other type its row form --; every layer below reads the
result, none re-derives it.

Entry columns ``item / txn / write`` hold one entry per (item,
transaction) pair, write dominating (Figure 1(b): T1's ``Ra Wa`` is one
write entry in group ``a``), sorted by ``(item, txn)``. The other
columns are per transaction, aligned with ``txn_ids``.

Slice invariant: a mask over a ``(item, txn)``-sorted array is still
sorted, so :meth:`OpArray.select` (a shard's sub-bulk) never sorts
again, and neither does the K-SET extractor, which reads its item
groups off that order.

The array charges no simulated cost; its readers charge the sort, map
and scan passes the device would run, with counts read off the array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.procedure import (
    Access, KeyedAccess, KeyedPartition, ProcedureRegistry,
)
from repro.core.txn import Transaction, TransactionColumns
from repro.errors import ExecutionError, ProcedureError, RegistrationError

#: ``partition`` value of a cross-partition transaction.
NO_PARTITION = -1


@dataclass(eq=False)
class OpArray:
    """Merged, ``(item, txn)``-sorted basic operations of one bulk."""

    #: Transaction ids, ascending: a bulk is in timestamp order.
    txn_ids: np.ndarray
    #: PART's partition id per transaction (or :data:`NO_PARTITION`).
    partition: np.ndarray
    #: Basic operations each transaction declared, before the merge.
    op_counts: np.ndarray
    item: np.ndarray
    txn: np.ndarray
    write: np.ndarray
    #: Memo of ``kset.compute_ranks``: the profiler and TPL run the
    #: same pipeline on the same input.
    ranks: Any = None
    _grouping: Optional[Tuple[np.ndarray, List[int]]] = None

    @classmethod
    def of_bulk(
        cls, registry: ProcedureRegistry, transactions: Sequence[Transaction]
    ) -> "OpArray":
        """Resolve a bulk's declared access sets and partitions, once
        per type: a keyed type answers with one key column, any other
        through its row form. Parameters a declaration cannot read are
        a :class:`~repro.errors.ProcedureError` naming the bulk's first
        such transaction."""
        transactions = TransactionColumns.of(transactions)
        n = len(transactions)
        ids = np.fromiter(transactions.txn_id, np.int64, n)
        params = transactions.params
        partition = np.full(n, NO_PARTITION, dtype=np.int64)
        op_counts = np.zeros(n, dtype=np.int64)
        columns = tuple([np.zeros(0, dtype=dtype)] for dtype in _DTYPES)
        try:
            for name, at in transactions.by_type():
                txn_type = registry.get(name)
                access, part = txn_type.access_fn, txn_type.partition_fn
                group = list(map(params.__getitem__, at))
                if isinstance(access, KeyedAccess) and isinstance(
                    part, (KeyedPartition, type(None))
                ):
                    if part is not None:
                        partition[at] = part.keys(group)
                    keys = access.keys(group)
                    op_counts[at] = 1 if len(keys) else 0
                    entries: Tuple[Any, ...] = (
                        keys, ids[at][: len(keys)], [access.write] * len(keys)
                    )
                else:
                    entries, parts, counts = ([], [], []), [], []
                    for txn_id, p in zip(ids[at].tolist(), group):
                        parts.append(txn_type.partition_of(p))
                        accesses = txn_type.accesses(p)
                        counts.append(len(accesses))
                        _merge(txn_id, accesses, *entries)
                    partition[at] = [
                        NO_PARTITION if q is None else q for q in parts
                    ]
                    op_counts[at] = counts
                for column, entry, dtype in zip(columns, entries, _DTYPES):
                    column.append(np.asarray(entry, dtype=dtype))
        except (RegistrationError, *_UNRESOLVABLE):
            _raise_first_unresolvable(registry, transactions)
            raise
        return cls._sorted(
            ids, partition, op_counts, *map(np.concatenate, columns)
        )

    @classmethod
    def from_accesses(
        cls,
        access_lists: Iterable[Tuple[int, Sequence[Access]]],
        partitions: Sequence[Optional[int]] = (),
    ) -> "OpArray":
        """Build from ``(txn_id, accesses)`` pairs in timestamp order;
        ``partitions`` aligns with them (``None``, or no list at all,
        means cross-partition)."""
        txn_ids, op_counts, entries = [], [], ([], [], [])
        for txn_id, accesses in access_lists:
            txn_ids.append(txn_id)
            op_counts.append(len(accesses))
            _merge(txn_id, accesses, *entries)
        return cls._sorted(
            np.asarray(txn_ids, dtype=np.int64),
            np.asarray(
                [NO_PARTITION if p is None else p for p in partitions]
                or [NO_PARTITION] * len(txn_ids),
                dtype=np.int64,
            ),
            np.asarray(op_counts, dtype=np.int64),
            *map(np.asarray, entries, _DTYPES),
        )

    @classmethod
    def _sorted(cls, ids, partition, op_counts, item, txn, write) -> "OpArray":
        """The array of unsorted entry columns, sorted by ``(item, txn)``."""
        if (ids[1:] <= ids[:-1]).any():
            raise ExecutionError(
                "a bulk's transactions must be in timestamp order "
                "(strictly increasing ids)"
            )
        order = np.lexsort((txn, item))
        return cls(
            ids, partition, op_counts, item[order], txn[order], write[order]
        )

    def select(self, txn_ids: Sequence[int]) -> "OpArray":
        """The sub-array of ``txn_ids``, an ascending subset of this
        array's transactions. Costs the slice, not the bulk: the picked
        entries are re-sorted by position, which *is* the ``(item,
        txn)`` order (the slice invariant)."""
        at = np.searchsorted(self.txn_ids, txn_ids)
        order, bounds = self._by_txn()
        keep = np.sort(np.concatenate(
            [order[bounds[i]:bounds[i + 1]] for i in at.tolist()] + [order[:0]]
        ))
        return OpArray(
            self.txn_ids[at], self.partition[at], self.op_counts[at],
            self.item[keep], self.txn[keep], self.write[keep],
        )

    def _by_txn(self) -> Tuple[np.ndarray, List[int]]:
        """``(order, bounds)``: a stable argsort by transaction, memoised;
        transaction ``i`` owns ``order[bounds[i]:bounds[i + 1]]``, in
        ascending item order (the order both TPL locking phases walk)."""
        if self._grouping is None:
            order = np.argsort(self.txn, kind="stable")
            bounds = np.searchsorted(self.txn[order], self.txn_ids).tolist()
            self._grouping = (order, bounds + [len(order)])
        return self._grouping

    def per_txn(self, column: np.ndarray) -> List[list]:
        """An entry-aligned ``column`` regrouped as one list per
        transaction, aligned with ``txn_ids``, each in item order."""
        order, bounds = self._by_txn()
        flat = column[order].tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


#: dtypes of the entry columns ``item``, ``txn``, ``write``.
_DTYPES = (np.int64, np.int64, bool)
#: What a declaration raises on parameters it cannot read.
_UNRESOLVABLE = (IndexError, ValueError, TypeError, KeyError)


def _merge(
    txn_id: int, accesses: Sequence[Access],
    items: list, txns: list, writes: list,
) -> None:
    """Append one transaction's entries: one per item, write dominating."""
    if len(accesses) == 1:
        # OLTP fast path: one basic operation needs no merge dict.
        items.append(accesses[0].item)
        txns.append(txn_id)
        writes.append(accesses[0].write)
        return
    merged: Dict[int, bool] = {}
    for acc in accesses:
        merged[acc.item] = merged.get(acc.item, False) or acc.write
    items.extend(merged)
    txns.extend([txn_id] * len(merged))
    writes.extend(merged.values())


def _raise_first_unresolvable(
    registry: ProcedureRegistry, transactions: TransactionColumns
) -> None:
    """Resolve ``transactions`` one by one, raising at the first whose
    type is unknown or whose declarations cannot read its parameters."""
    for txn_id, name, params in zip(
        transactions.txn_id, transactions.type_name, transactions.params
    ):
        txn_type = registry.get(name)
        try:
            txn_type.partition_of(params)
            txn_type.accesses(params)
        except _UNRESOLVABLE as exc:
            raise ProcedureError(
                f"transaction {txn_id} ({name!r}): its declared "
                f"accesses cannot be resolved from {params!r}: {exc!r}"
            ) from exc
