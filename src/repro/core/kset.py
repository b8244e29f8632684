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

The input is the bulk's :class:`~repro.core.oparray.OpArray`: the
merged entries arrive already sorted by (item, txn), so step 1 only
charges the sort; the array is never sorted twice.

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
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.oparray import OpArray
from repro.errors import ExecutionError
from repro.gpu.primitives import PrimitiveLibrary


@dataclass
class RankResult:
    """Output of the five-step pipeline."""

    #: Unique transaction ids, ascending.
    txn_ids: np.ndarray
    #: Max rank (pipeline depth) per transaction, aligned to txn_ids.
    depths: np.ndarray
    #: Per entry of the operation array the ranks were computed over:
    #: its item group's dense id (TPL's lock id) and its rank in that
    #: group (TPL's counter key, Section 5.1).
    entry_group: np.ndarray
    entry_rank: np.ndarray
    #: Simulated GPU time of the pipeline (bulk-generation cost).
    gen_seconds: float

    @property
    def n_groups(self) -> int:
        """Distinct items touched (the size of TPL's lock table)."""
        return int(self.entry_group[-1]) + 1 if len(self.entry_group) else 0

    def zero_set(self) -> List[int]:
        return [int(t) for t in self.txn_ids[self.depths == 0]]

    def depth_of(self, txn_id: int) -> int:
        pos = np.searchsorted(self.txn_ids, txn_id)
        if pos >= len(self.txn_ids) or self.txn_ids[pos] != txn_id:
            raise ExecutionError(f"unknown transaction {txn_id} in ranks")
        return int(self.depths[pos])

    def max_depth(self) -> int:
        return int(self.depths.max()) if len(self.depths) else 0

    def lock_plans(
        self, ops: OpArray, txn_ids: Sequence[int]
    ) -> List[List[Tuple[int, int, bool]]]:
        """Per-thread ``(lock, key, shared)`` plans for TPL, aligned
        with ``txn_ids``, each in ascending item order. ``ops`` is the
        array these ranks were computed over (the result does not keep
        it: the array memoises the result, and a cycle would leave
        every bulk's columns to the cycle collector)."""
        locks = ops.per_txn(self.entry_group)
        keys = ops.per_txn(self.entry_rank)
        shared = ops.per_txn(~ops.write)
        return [
            list(zip(locks[i], keys[i], shared[i]))
            for i in np.searchsorted(ops.txn_ids, txn_ids).tolist()
        ]

    def reader_runs(self, ops: OpArray) -> List[Tuple[int, int, int]]:
        """``(lock, key, size)`` of every shared-reader run: the
        readers of one item that share a rank."""
        reads = ~ops.write
        width = int(self.entry_rank.max(initial=0)) + 1
        runs, sizes = np.unique(
            self.entry_group[reads] * width + self.entry_rank[reads],
            return_counts=True,
        )
        return list(
            zip((runs // width).tolist(), (runs % width).tolist(), sizes.tolist())
        )


def compute_ranks(
    ops: OpArray, lib: PrimitiveLibrary | None = None
) -> RankResult:
    """Run the five-step pipeline; see module docstring."""
    if ops.ranks is not None:
        return ops.ranks
    lib = lib or PrimitiveLibrary()
    item_s, txn_s, write_s = ops.item, ops.txn, ops.write
    n = len(item_s)
    gen_seconds = 0.0
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        ops.ranks = RankResult(empty, empty, empty, empty, 0.0)
        return ops.ranks

    # Step 1: sort by (item, txn) -- the order the array is built in.
    gen_seconds += lib.sort_cost(n, key_bits=64)

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

    ops.ranks = RankResult(
        txn_ids=txn_ids,
        depths=depths,
        entry_group=group_of,
        entry_rank=rank,
        gen_seconds=gen_seconds,
    )
    return ops.ranks


class IncrementalKSetExtractor:
    """Incremental 0-set extraction (Section 5.3).

    "We can select the bulk for the transactions with the key value of
    zero" -- i.e. repeatedly peel the current 0-set without recomputing
    all k-sets.

    A transaction is in the current 0-set iff, in every item group it
    touches, its entry either comes first or is a read preceded only by
    reads.

    The extractor is seeded with the bulk's operation array -- literally
    the paper's "sorted array" -- so each round's scan is whole-array
    numpy work instead of per-entry Python; peeled transactions are
    removed with one boolean mask, which preserves the sort.
    """

    def __init__(
        self, ops: OpArray, lib: PrimitiveLibrary | None = None
    ) -> None:
        self._lib = lib or PrimitiveLibrary()
        #: Entries of the transactions still pending, (item, txn)-sorted.
        self._items = ops.item
        self._txns = ops.txn
        self._writes = ops.write
        self._txn_ids = set(ops.txn_ids.tolist())
        self.gen_seconds = 0.0

    def __len__(self) -> int:
        return len(self._txn_ids)

    @property
    def pending(self) -> List[int]:
        return sorted(self._txn_ids)

    def zero_set(self) -> List[int]:
        """Transactions with no preceding conflicting transaction."""
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
