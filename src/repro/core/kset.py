"""Data-oriented k-set calculation (Section 4.2).

The paper computes k-set membership *without constructing the
T-dependency graph*, as a five-step pipeline of data-parallel
primitives over the basic operations, represented as (v, id) tuples:

1. sort by (v, id) -- group potentially conflicting ops by data item;
2. map -- find group boundaries;
3. per-group rank assignment: the first entry gets rank 0; entry *i*
   gets ``r+1`` if it is a write, ``r`` if both it and entry *i-1* are
   reads, ``r+1`` otherwise (``r`` = rank of entry *i-1*);
4. sort the (id, rank) output by id;
5. map -- group boundaries per transaction; the last (maximum) rank of
   a transaction is its depth, and the 0-set is the set of
   transactions with depth 0.

Entries here are *merged* per (item, transaction) with write dominating,
matching the paper's worked example (Figure 1(b), where T1's ``Ra Wa``
is one write entry in group ``a``).

The same rank values drive TPL's counter-lock keys (Section 5.1), and
the per-(item, rank) reader-run sizes initialise the lock table's
shared-run countdowns.

**Documented deviation** (see docs/ARCHITECTURE.md): the per-group
maximum rank is a *lower bound* of the true T-dependency depth --
ranks do not propagate across items (``T1:Wa; T2:Ra,Wb; T3:Rb`` gives
T3 rank 1 but TDG depth 2). The 0-set is nevertheless exact, so the
iterative :class:`IncrementalKSetExtractor` used by the K-SET strategy
is correct; tests cover both facts.

GPU costs of every step are charged through
:class:`~repro.gpu.primitives.PrimitiveLibrary` and reported in
``gen_seconds`` -- this is the "sort" share of the time breakdowns in
Figures 5 and 17.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.procedure import Access
from repro.errors import ExecutionError
from repro.gpu.primitives import PrimitiveLibrary


def merge_accesses(
    transactions: Iterable[Tuple[int, Sequence[Access]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten to merged (item, txn, write) arrays, write dominating."""
    items: List[int] = []
    txns: List[int] = []
    writes: List[bool] = []
    for txn_id, accesses in transactions:
        if len(accesses) == 1:
            # OLTP fast path: one basic operation needs no merge dict.
            acc = accesses[0]
            items.append(acc.item)
            txns.append(txn_id)
            writes.append(acc.write)
            continue
        merged: Dict[int, bool] = {}
        for acc in accesses:
            merged[acc.item] = merged.get(acc.item, False) or acc.write
        for item, wrote in merged.items():
            items.append(item)
            txns.append(txn_id)
            writes.append(wrote)
    return (
        np.asarray(items, dtype=np.int64),
        np.asarray(txns, dtype=np.int64),
        np.asarray(writes, dtype=bool),
    )


@dataclass
class RankResult:
    """Output of the five-step pipeline."""

    #: Unique transaction ids, ascending.
    txn_ids: np.ndarray
    #: Max rank (pipeline depth) per transaction, aligned to txn_ids.
    depths: np.ndarray
    #: Per merged entry, sorted by (item, txn): the detail TPL needs.
    entry_item: np.ndarray
    entry_txn: np.ndarray
    entry_write: np.ndarray
    entry_rank: np.ndarray
    #: Simulated GPU time of the pipeline (bulk-generation cost).
    gen_seconds: float

    def zero_set(self) -> List[int]:
        return [int(t) for t in self.txn_ids[self.depths == 0]]

    def depth_of(self, txn_id: int) -> int:
        pos = np.searchsorted(self.txn_ids, txn_id)
        if pos >= len(self.txn_ids) or self.txn_ids[pos] != txn_id:
            raise ExecutionError(f"unknown transaction {txn_id} in ranks")
        return int(self.depths[pos])

    def max_depth(self) -> int:
        return int(self.depths.max()) if len(self.depths) else 0

    def lock_keys(self) -> Dict[Tuple[int, int], Tuple[int, bool]]:
        """(item, txn) -> (counter key, shared?) for TPL (Section 5.1)."""
        out: Dict[Tuple[int, int], Tuple[int, bool]] = {}
        for item, txn, write, rank in zip(
            self.entry_item, self.entry_txn, self.entry_write, self.entry_rank
        ):
            out[(int(item), int(txn))] = (int(rank), not bool(write))
        return out

    def reader_run_sizes(self) -> Dict[Tuple[int, int], int]:
        """(item, rank) -> number of readers sharing that rank level."""
        out: Dict[Tuple[int, int], int] = {}
        for item, write, rank in zip(
            self.entry_item, self.entry_write, self.entry_rank
        ):
            if not write:
                key = (int(item), int(rank))
                out[key] = out.get(key, 0) + 1
        return out


def compute_ranks(
    transactions: Sequence[Tuple[int, Sequence[Access]]],
    lib: PrimitiveLibrary | None = None,
) -> RankResult:
    """Run the five-step pipeline; see module docstring."""
    lib = lib or PrimitiveLibrary()
    item, txn, write = merge_accesses(transactions)
    n = len(item)
    gen_seconds = 0.0
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return RankResult(
            txn_ids=empty,
            depths=empty.copy(),
            entry_item=empty.copy(),
            entry_txn=empty.copy(),
            entry_write=np.zeros(0, dtype=bool),
            entry_rank=empty.copy(),
            gen_seconds=0.0,
        )

    # Step 1: sort by (item, txn).
    order, cost = lib.sort_by_composite(item, txn)
    gen_seconds += cost
    item_s, txn_s, write_s = item[order], txn[order], write[order]

    # Step 2: group boundaries (map primitive).
    starts, cost = lib.group_boundaries(item_s)
    gen_seconds += cost

    # Step 3: per-group ranks -- one thread per group in the paper;
    # vectorised here, charged as a map.
    incr = np.zeros(n, dtype=np.int64)
    if n > 1:
        incr[1:] = (write_s[1:] | write_s[:-1]).astype(np.int64)
    is_start = np.zeros(n, dtype=bool)
    is_start[starts] = True
    incr[is_start] = 0
    cumulative = np.cumsum(incr)
    group_of = np.cumsum(is_start) - 1
    base = cumulative[starts]
    rank = cumulative - base[group_of]
    gen_seconds += lib.map_cost(n)

    # Step 4: sort (id, rank) by id.
    order2, cost = lib.sort_by_composite(txn_s, rank)
    gen_seconds += cost
    txn_2, rank_2 = txn_s[order2], rank[order2]

    # Step 5: boundaries per transaction; last element = max rank.
    t_starts, cost = lib.group_boundaries(txn_2)
    gen_seconds += cost
    ends = np.append(t_starts[1:], n) - 1
    txn_ids = txn_2[t_starts]
    depths = rank_2[ends]

    return RankResult(
        txn_ids=txn_ids,
        depths=depths,
        entry_item=item_s,
        entry_txn=txn_s,
        entry_write=write_s,
        entry_rank=rank,
        gen_seconds=gen_seconds,
    )


class IncrementalKSetExtractor:
    """Incremental 0-set extraction (Section 5.3).

    "When new transactions are added to the pool, their basic
    operations are merged into the sorted array. Next, we can select
    the bulk for the transactions with the key value of zero" -- i.e.
    repeatedly peel the current 0-set without recomputing all k-sets.

    A transaction is in the current 0-set iff, in every item group it
    touches, its entry either comes first or is a read preceded only by
    reads.

    Internally the merged entries live as columnar ``(item, txn,
    write)`` arrays sorted by ``(item, txn)`` -- literally the paper's
    "sorted array" -- so each round's scan is whole-array numpy work
    instead of per-entry Python; peeled transactions are removed with
    one boolean mask, which preserves the sort. ``add`` only appends;
    the sort is (re)established lazily at the next scan.
    """

    def __init__(self, lib: PrimitiveLibrary | None = None) -> None:
        self._lib = lib or PrimitiveLibrary()
        #: Merged entries, sorted by (item, txn) once ``_merged`` ran.
        self._items = np.zeros(0, dtype=np.int64)
        self._txns = np.zeros(0, dtype=np.int64)
        self._writes = np.zeros(0, dtype=bool)
        #: Entries appended since the last merge (unsorted).
        self._new_items: List[int] = []
        self._new_txns: List[int] = []
        self._new_writes: List[bool] = []
        #: Item -> dense id (items need only be hashable; dense ids
        #: keep the sorted array numeric).
        self._item_ids: Dict[Any, int] = {}
        self._txn_ids: set = set()
        self._last_ts: int = -1
        #: Raw (pre-merge) basic-operation count, for callers charging
        #: map passes over the unmerged ops.
        self.raw_ops = 0
        self.gen_seconds = 0.0

    def __len__(self) -> int:
        return len(self._txn_ids)

    @property
    def pending(self) -> List[int]:
        return sorted(self._txn_ids)

    def add(self, txn_id: int, accesses: Sequence[Access]) -> None:
        """Merge one transaction's ops into the sorted groups."""
        if txn_id <= self._last_ts:
            raise ExecutionError(
                f"transactions must be added in timestamp order "
                f"({txn_id} after {self._last_ts})"
            )
        self._last_ts = txn_id
        self._txn_ids.add(txn_id)
        self.raw_ops += len(accesses)
        item_ids = self._item_ids
        if len(accesses) == 1:
            acc = accesses[0]
            dense = item_ids.setdefault(acc.item, len(item_ids))
            self._new_items.append(dense)
            self._new_txns.append(txn_id)
            self._new_writes.append(acc.write)
        else:
            merged: Dict[Any, bool] = {}
            for acc in accesses:
                merged[acc.item] = merged.get(acc.item, False) or acc.write
            for item, wrote in merged.items():
                self._new_items.append(item_ids.setdefault(item, len(item_ids)))
                self._new_txns.append(txn_id)
                self._new_writes.append(wrote)
        # The merge of a whole batch into the sorted array is one GPU
        # pass charged by the caller (KsetExecutor) -- charging per
        # transaction would bill one kernel launch per add.

    def _merged(self) -> None:
        if not self._new_items:
            return
        items = np.concatenate(
            [self._items, np.asarray(self._new_items, dtype=np.int64)]
        )
        txns = np.concatenate(
            [self._txns, np.asarray(self._new_txns, dtype=np.int64)]
        )
        writes = np.concatenate(
            [self._writes, np.asarray(self._new_writes, dtype=bool)]
        )
        order = np.lexsort((txns, items))
        self._items, self._txns, self._writes = (
            items[order], txns[order], writes[order]
        )
        self._new_items, self._new_txns, self._new_writes = [], [], []

    @property
    def merged_entry_count(self) -> int:
        """Number of merged (item, txn) entries in the sorted array."""
        self._merged()
        return len(self._items)

    def zero_set(self) -> List[int]:
        """Transactions with no preceding conflicting transaction."""
        self._merged()
        n = len(self._items)
        blocked: set = set()
        if n:
            first = np.empty(n, dtype=bool)
            first[0] = True
            np.not_equal(self._items[1:], self._items[:-1], out=first[1:])
            writes = self._writes.astype(np.int64)
            excl = np.cumsum(writes) - writes
            group_first = np.maximum.accumulate(
                np.where(first, np.arange(n), 0)
            )
            writes_before = excl - excl[group_first]
            blocked_mask = ~first & ((writes_before > 0) | self._writes)
            blocked = set(np.unique(self._txns[blocked_mask]).tolist())
        result = sorted(self._txn_ids - blocked)
        self.gen_seconds += self._lib.map_cost(max(1, n))
        return result

    def pop_zero_set(self) -> List[int]:
        """Remove and return the current 0-set."""
        zero = self.zero_set()
        if not zero:
            return zero
        keep = ~np.isin(self._txns, np.asarray(zero, dtype=np.int64))
        self._items = self._items[keep]
        self._txns = self._txns[keep]
        self._writes = self._writes[keep]
        self._txn_ids -= set(zero)
        return zero
