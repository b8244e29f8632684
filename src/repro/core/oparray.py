"""The operation array: one bulk's declared footprint (Section 4.2).

The paper builds *one* sorted array of basic operations per bulk and
reads it for everything: profiling (Appendix D), TPL's lock keys
(Section 5.1), K-SET's 0-sets (Section 5.3). :class:`OpArray` is that
array. :meth:`OpArray.of_bulk` is the only place the engine and
cluster paths ask a transaction type for its access set or partition;
every layer below reads the result, none re-derives it.

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

from repro.core.procedure import Access, ProcedureRegistry
from repro.core.txn import Transaction
from repro.errors import ExecutionError, ProcedureError

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
        """Resolve a bulk's declared access sets and partitions, once;
        a declaration that cannot read its parameters is a
        :class:`~repro.errors.ProcedureError` naming the transaction."""
        get = registry.get
        partitions: List[Optional[int]] = []

        def declared() -> Iterable[Tuple[int, Sequence[Access]]]:
            # A generator: each access list is merged and dropped
            # before the next is built, so a 16k bulk never holds 16k
            # of them; ``partitions`` fills as it is consumed.
            try:
                for t in transactions:
                    txn_type = get(t.type_name)
                    partitions.append(txn_type.partition_of(t.params))
                    yield t.txn_id, txn_type.accesses(t.params)
            except (IndexError, ValueError, TypeError, KeyError) as exc:
                raise ProcedureError(
                    f"transaction {t.txn_id} ({t.type_name!r}): its declared "
                    f"accesses cannot be resolved from {t.params!r}: {exc!r}"
                ) from exc

        return cls.from_accesses(declared(), partitions)

    @classmethod
    def from_accesses(
        cls,
        access_lists: Iterable[Tuple[int, Sequence[Access]]],
        partitions: Sequence[Optional[int]] = (),
    ) -> "OpArray":
        """Build from ``(txn_id, accesses)`` pairs in timestamp order;
        ``partitions`` aligns with them (``None``, or no list at all,
        means cross-partition)."""
        txn_ids, op_counts, items, txns, writes = [], [], [], [], []
        for txn_id, accesses in access_lists:
            txn_ids.append(txn_id)
            op_counts.append(len(accesses))
            if len(accesses) == 1:
                # OLTP fast path: one basic operation needs no merge dict.
                items.append(accesses[0].item)
                txns.append(txn_id)
                writes.append(accesses[0].write)
                continue
            merged: Dict[int, bool] = {}
            for acc in accesses:
                merged[acc.item] = merged.get(acc.item, False) or acc.write
            items.extend(merged)
            txns.extend([txn_id] * len(merged))
            writes.extend(merged.values())
        ids = np.asarray(txn_ids, dtype=np.int64)
        if (ids[1:] <= ids[:-1]).any():
            raise ExecutionError(
                "a bulk's transactions must be in timestamp order "
                "(strictly increasing ids)"
            )
        item = np.asarray(items, dtype=np.int64)
        txn = np.asarray(txns, dtype=np.int64)
        order = np.lexsort((txn, item))
        return cls(
            txn_ids=ids,
            partition=np.asarray(
                [NO_PARTITION if p is None else p for p in partitions]
                or [NO_PARTITION] * len(ids),
                dtype=np.int64,
            ),
            op_counts=np.asarray(op_counts, dtype=np.int64),
            item=item[order],
            txn=txn[order],
            write=np.asarray(writes, dtype=bool)[order],
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
