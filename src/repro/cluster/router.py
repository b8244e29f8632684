"""Shard routing: which simulated GPU owns which data item.

The cluster runtime partitions the database horizontally over N
devices, keyed by each table's ``partition_key`` column -- the same
key the paper uses for PART's partitions and for conflict detection
(Section 5.1: the primary key of the root relation of the tree-shaped
schema). A :class:`ShardRouter` maps such a key to the shard that owns
it, and classifies a transaction by the set of shards its declared
accesses touch:

* one shard  -> *single-shard*: executes on that shard's own GPUTx
  engine, concurrently with other shards' work;
* several    -> *cross-shard*: handed to the leader/coordinator pass
  (DiPETrans-style), which executes it serially against a global view.

Routing uses the same static metadata as bulk generation (the access
function / partition function of the transaction type), so a
transaction's home is known before execution -- no speculative
re-routing is ever needed. The rule is :func:`routing_keys`, applied
per arrival by :meth:`ShardRouter.shards_of` and per bulk by
:meth:`ShardRouter.shard_map`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.oparray import NO_PARTITION, OpArray
from repro.core.procedure import TransactionType
from repro.errors import ClusterError, ConfigError, check_int

#: One row of a range table: keys in ``[lo, hi)`` belong to ``shard``.
RangeEntry = Tuple[int, int, int]


def routing_keys(items: Sequence[int], partition: int) -> Sequence[int]:
    """The routing rule: the keys that decide a transaction's shards.

    The declared access set (conflict items) is authoritative when
    present; otherwise the partition is consulted; with neither, the
    transaction touches no shard-resident state (e.g. a static-map
    lookup) and may run anywhere.
    """
    if items:
        return items
    return () if partition == NO_PARTITION else (partition,)


class ShardRouter:
    """Base router: key -> shard, plus transaction classification."""

    kind = "base"

    def __init__(self, n_shards: int) -> None:
        self.n_shards = check_int("n_shards", n_shards, 1)

    # ------------------------------------------------------------------
    def shard_of_key(self, key: Any) -> int:
        """Owning shard of one partition-key value."""
        raise NotImplementedError

    def shard_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`shard_of_key` over an integer key array.

        The base implementation loops; the shipped routers override it
        with pure numpy so database partitioning stays O(1) Python
        calls per *table*, not per row.
        """
        return np.fromiter(
            (self.shard_of_key(k) for k in keys),
            dtype=np.int64,
            count=len(keys),
        )

    # ------------------------------------------------------------------
    def shards_of(
        self, txn_type: TransactionType, params: Tuple[Any, ...]
    ) -> FrozenSet[int]:
        """Shards one transaction touches (see :func:`routing_keys`);
        the scalar form, for one arrival at a time."""
        partition = txn_type.partition_of(params)
        keys = routing_keys(
            [a.item for a in txn_type.accesses(params)],
            NO_PARTITION if partition is None else partition,
        )
        return frozenset(self.shard_of_key(key) for key in keys)

    def shard_map(self, ops: OpArray) -> Dict[int, FrozenSet[int]]:
        """``txn id -> shards`` of a whole bulk, read off its operation
        array and routed by one :meth:`shard_of_keys` call."""
        keys = [
            routing_keys(items, partition)
            for items, partition in zip(
                ops.per_txn(ops.item), ops.partition.tolist()
            )
        ]
        flat = np.asarray([k for ks in keys for k in ks], dtype=np.int64)
        shards = iter(self.shard_of_keys(flat).tolist())
        return {
            txn_id: frozenset(islice(shards, len(ks)))
            for txn_id, ks in zip(ops.txn_ids.tolist(), keys)
        }

    def home_shards(
        self, txn_id: int, shards: set[int] | frozenset[int]
    ) -> set[int] | frozenset[int]:
        """The shards a transaction (or conflict group) occupies while
        it runs: the ones it touches, or -- when it touches no
        shard-resident state -- one it is spread to, round-robin by
        timestamp."""
        return shards or frozenset({txn_id % self.n_shards})

    # ------------------------------------------------------------------
    def split(self, lo: int, hi: int, dst: int) -> List[RangeEntry]:
        """Reassign the key range ``[lo, hi)`` to shard ``dst``.

        Only routers with an explicit range table support live splits;
        everything else (hash most prominently) scatters a contiguous
        key range over every shard, so there is no contiguous slice of
        data a migration could move.
        """
        raise ConfigError(
            f"{self.kind} router has no range table to split; live "
            "shard migration requires router='range'"
        )


class HashShardRouter(ShardRouter):
    """Modulo hashing over the integer partition key.

    The workloads' keys are dense non-negative integers, so plain
    modulo both balances load and keeps the mapping obvious in tests.
    """

    kind = "hash"

    def shard_of_key(self, key: Any) -> int:
        return int(key) % self.n_shards

    def shard_of_keys(self, keys: np.ndarray) -> np.ndarray:
        return np.asarray(keys, dtype=np.int64) % self.n_shards


class RangeShardRouter(ShardRouter):
    """Contiguous key ranges over an explicit, mutable range table.

    Shard ``i`` initially owns its arithmetic slice of
    ``[0, key_space)`` (``lo = ceil(i * key_space / n_shards)``), the
    same mapping the original closed-form router produced. The table is
    an ordered list of ``(lo, hi, shard)`` entries covering the key
    space exactly; :meth:`split` rewrites it *in place*, so every
    holder of this router object -- admission controller, cross-shard
    coordinator, cluster store adapter -- observes the swap atomically
    at the next lookup. Out-of-range keys clamp to the edge entries.
    """

    kind = "range"

    def __init__(self, n_shards: int, key_space: int) -> None:
        super().__init__(n_shards)
        n_shards = self.n_shards
        self.key_space = key_space = check_int("key_space", key_space, 1)
        #: bumped on every table swap; serving-layer consumers can use
        #: it to detect that routing changed under them.
        self.table_version = 0
        entries = []
        for shard in range(n_shards):
            lo = -(-shard * key_space // n_shards)
            hi = -(-(shard + 1) * key_space // n_shards)
            if hi > lo:
                entries.append((lo, hi, shard))
        self._install(entries)

    # -- table plumbing ------------------------------------------------
    def _install(self, entries: Sequence[RangeEntry]) -> None:
        self._entries: List[RangeEntry] = list(entries)
        self._lows: List[int] = [e[0] for e in self._entries]
        self._lows_arr = np.asarray(self._lows, dtype=np.int64)
        self._owners_arr = np.asarray(
            [e[2] for e in self._entries], dtype=np.int64
        )

    @property
    def range_table(self) -> Tuple[RangeEntry, ...]:
        """The live table, ordered by ``lo`` and gap-free."""
        return tuple(self._entries)

    def ranges_of(self, shard: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(lo, hi)`` ranges currently owned by ``shard``."""
        return tuple(
            (lo, hi) for lo, hi, owner in self._entries if owner == shard
        )

    # -- lookups -------------------------------------------------------
    def shard_of_key(self, key: Any) -> int:
        k = min(max(int(key), 0), self.key_space - 1)
        return self._entries[bisect_right(self._lows, k) - 1][2]

    def shard_of_keys(self, keys: np.ndarray) -> np.ndarray:
        clamped = np.clip(
            np.asarray(keys, dtype=np.int64), 0, self.key_space - 1
        )
        idx = np.searchsorted(self._lows_arr, clamped, side="right") - 1
        return self._owners_arr[idx]

    # -- live splits ---------------------------------------------------
    def split(self, lo: int, hi: int, dst: int) -> List[RangeEntry]:
        """Atomically reassign ``[lo, hi)`` to ``dst``, in place.

        Returns the segments that actually changed owner, as
        ``(lo, hi, previous_owner)`` entries -- exactly the data a
        migration has to move. Adjacent entries with the same owner are
        coalesced, so repeated splits never fragment the table beyond
        the distinct ownership boundaries.
        """
        if not 0 <= dst < self.n_shards:
            raise ConfigError(
                f"split destination shard {dst} out of range for "
                f"{self.n_shards}-shard cluster"
            )
        if not 0 <= lo < hi <= self.key_space:
            raise ConfigError(
                f"split range [{lo}, {hi}) is not a non-empty subrange "
                f"of [0, {self.key_space})"
            )
        moved: List[RangeEntry] = []
        rebuilt: List[RangeEntry] = []
        for e_lo, e_hi, owner in self._entries:
            cut_lo, cut_hi = max(e_lo, lo), min(e_hi, hi)
            if cut_lo >= cut_hi:
                rebuilt.append((e_lo, e_hi, owner))
                continue
            if e_lo < cut_lo:
                rebuilt.append((e_lo, cut_lo, owner))
            rebuilt.append((cut_lo, cut_hi, dst))
            if owner != dst:
                moved.append((cut_lo, cut_hi, owner))
            if cut_hi < e_hi:
                rebuilt.append((cut_hi, e_hi, owner))
        merged: List[RangeEntry] = []
        for entry in rebuilt:
            if merged and merged[-1][2] == entry[2]:
                merged[-1] = (merged[-1][0], entry[1], entry[2])
            else:
                merged.append(entry)
        self._install(merged)
        self.table_version += 1
        return moved


def replica_placement(shard: int, n_shards: int, k: int) -> Tuple[int, ...]:
    """Ring placement of ``k`` replicas for ``shard``.

    Replica ``i`` of shard ``s`` lives on device ``(s + 1 + i) mod N``
    -- the classic chained-declustering layout: no replica shares its
    primary's device, and a device failure leaves every partition it
    hosted recoverable from its successors. ``k >= N`` is rejected
    (the ring would wrap a copy back onto the primary, silently
    providing less fault tolerance than configured). With a single
    device (``N == 1``) the placement degenerates to co-location,
    which is still useful for overhead accounting in benches.
    """
    if not 0 <= shard < n_shards:
        raise ConfigError(
            f"shard {shard} out of range for {n_shards}-shard cluster"
        )
    if k < 0:
        raise ConfigError("replica count must be >= 0")
    if n_shards == 1:
        return tuple(0 for _ in range(k))
    if k >= n_shards:
        raise ConfigError(
            f"{k} replicas do not fit a {n_shards}-device ring without "
            "co-locating a copy with its primary; use k <= "
            f"{n_shards - 1}"
        )
    return tuple((shard + 1 + i) % n_shards for i in range(k))


def make_router(
    router: Union[str, ShardRouter],
    n_shards: int,
    key_space: Optional[int] = None,
) -> ShardRouter:
    """Resolve a router spec: an instance, ``"hash"``, or ``"range"``."""
    if isinstance(router, ShardRouter):
        if router.n_shards != n_shards:
            raise ClusterError(
                f"router covers {router.n_shards} shards, "
                f"cluster has {n_shards}"
            )
        return router
    if router == "hash":
        return HashShardRouter(n_shards)
    if router == "range":
        if key_space is None:
            raise ClusterError("range routing needs a key_space")
        return RangeShardRouter(n_shards, key_space)
    raise ClusterError(
        f"unknown router {router!r}; use 'hash', 'range', or a ShardRouter"
    )
