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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``range(s, s + c)`` for every pair, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts + counts - ends, counts)


class IncrementalKSetExtractor:
    """Incremental 0-set extraction (Section 5.3).

    "We can select the bulk for the transactions with the key value of
    zero" -- i.e. repeatedly peel the current 0-set without recomputing
    all k-sets.

    A transaction is in the current 0-set iff, in every item group it
    touches, its entry either comes first or is a read preceded only by
    reads.

    The extractor is seeded with the bulk's operation array -- literally
    the paper's "sorted array" -- and keeps a frontier per item group:
    its first unpeeled write (``_head``) and how many unpeeled readers
    precede it. Peeling a round touches only the round's entries and
    the entries they expose -- the reader run after a peeled write, or
    the write after it (or after the last reader before it) -- and
    counts each exposed entry off its transaction's blocked count; a
    count reaching zero puts the transaction in the next 0-set. The
    model still charges one map pass over the remaining entries per
    round (``gen_seconds``): the host pays per peeled entry, the
    simulated device per pass.
    """

    def __init__(
        self, ops: OpArray, lib: PrimitiveLibrary | None = None
    ) -> None:
        self._lib = lib or PrimitiveLibrary()
        self._txn_ids = ops.txn_ids
        write = self._write = ops.write
        n = len(write)
        #: Transaction ``i`` owns entries ``_order[_bounds[i]:_bounds[i + 1]]``.
        self._order, bounds = ops._by_txn()
        self._bounds = np.asarray(bounds, dtype=np.int64)
        #: Per entry: its transaction's index in ``txn_ids``, its item
        #: group, and the next write in that group (the group's end if
        #: none).
        self._tix = np.empty(n, dtype=np.int64)
        self._tix[self._order] = np.repeat(
            np.arange(len(self._txn_ids)), np.diff(self._bounds)
        )
        is_start = np.ones(n, dtype=bool)
        np.not_equal(ops.item[1:], ops.item[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        self._grp = np.cumsum(is_start) - 1
        self._end = np.append(starts[1:], n)  # per group: one past its last
        idx = np.arange(n)
        first_write = np.minimum.accumulate(np.where(write, idx, n)[::-1])[::-1]
        self._next_write = np.minimum(
            np.append(first_write[1:], n), self._end[self._grp]
        )
        #: Per group: its first unpeeled write, and how many unpeeled
        #: readers precede it.
        self._head = np.minimum(first_write[starts], self._end)
        self._readers_before = self._head - starts
        # A write is blocked unless it opens its group; a read, when a
        # write precedes it.
        blocked = np.where(write, ~is_start, idx > self._head[self._grp])
        #: Per transaction: how many of its entries are blocked.
        self._blocked = np.bincount(
            self._tix[blocked], minlength=len(self._txn_ids)
        )
        #: Indices of the current 0-set, ascending.
        self._ready = np.flatnonzero(self._blocked == 0)
        self._n_pending = len(self._txn_ids)
        self._n_entries = n
        self.gen_seconds = 0.0

    def __len__(self) -> int:
        return self._n_pending

    @property
    def pending(self) -> List[int]:
        # Blocked, or ready; every peeled transaction is neither.
        pending = self._blocked > 0
        pending[self._ready] = True
        return self._txn_ids[pending].tolist()

    def zero_set(self) -> List[int]:
        """Transactions with no preceding conflicting transaction."""
        self.gen_seconds += self._lib.map_cost(max(1, self._n_entries))
        return self._txn_ids[self._ready].tolist()

    def pop_zero_set(self) -> List[int]:
        """Remove and return the current 0-set."""
        zero = self.zero_set()
        if not zero:
            return zero
        ready = self._ready
        self._n_pending -= len(ready)
        lo = self._bounds[ready]
        peeled = self._order[_ranges(lo, self._bounds[ready + 1] - lo)]
        self._n_entries -= len(peeled)
        group = self._grp[peeled]
        is_write = self._write[peeled]
        head, readers_before = self._head, self._readers_before
        # A peeled write was its group's head with no reader before it:
        # the reader run up to the next write is exposed.
        writes = peeled[is_write]
        w_groups = group[is_write]
        nxt = self._next_write[writes]
        run = nxt - writes - 1
        head[w_groups] = nxt
        readers_before[w_groups] = run
        # Peeled readers all precede their group's head.
        r_groups, peeled_readers = np.unique(
            group[~is_write], return_counts=True
        )
        readers_before[r_groups] -= peeled_readers
        # The head write is exposed once no reader precedes it.
        opened = np.concatenate(
            [w_groups[run == 0], r_groups[readers_before[r_groups] == 0]]
        )
        heads = head[opened]
        exposed = np.concatenate(
            [_ranges(writes + 1, run), heads[heads < self._end[opened]]]
        )
        txns, counts = np.unique(self._tix[exposed], return_counts=True)
        left = self._blocked[txns] - counts
        self._blocked[txns] = left
        self._ready = txns[left == 0]
        return zero
