"""Hash indexes over table rows.

OLTP transactions in the paper's benchmarks fetch "a small number of
tuples according to the primary key" (Section 5.1); GPUTx copies
indexes to device memory alongside the tables (Appendix E, Figure 16).
Two flavours:

* :class:`HashIndex` -- unique key -> row id (primary keys, and the
  static string -> id maps the paper uses to split TM1/TPC-C
  transactions that look rows up by name).
* :class:`MultiHashIndex` -- key -> sorted list of row ids (e.g. the
  CALL_FORWARDING rows of one subscriber, the order lines of one
  order).

Cost shape: one probe is modelled as two dependent device reads (bucket
header + entry), which is what the SIMT engine charges via
``probe_cost_addresses``.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IndexError_

#: Pretend device base for index buckets (only for traffic accounting).
_INDEX_REGION_STRIDE = 1 << 34


def _bucket_base(region: int, key: Any) -> int:
    """Device address of ``key``'s bucket header in ``region``.

    The single source of the bucket-address formula: one probe is two
    dependent 8-byte reads at ``base`` and ``base + 8``. Both index
    flavours use it, and the vectorized backend's replay reuses it to
    reproduce the interpreter's coalescing byte-for-byte (static maps
    have their own variant in ``repro.storage.catalog``).
    """
    return region + (hash(key) & 0xFFFFFF) * 16


class HashIndex:
    """Unique hash index: key -> row id."""

    unique = True

    def __init__(self, name: str, table: str, columns: Tuple[str, ...]) -> None:
        self.name = name
        self.table = table
        self.columns = tuple(columns)
        self._map: Dict[Any, int] = {}
        self._region = (hash(name) & 0xFF) * _INDEX_REGION_STRIDE

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Any) -> bool:
        return key in self._map

    def insert(self, key: Any, row: int) -> None:
        if key in self._map:
            raise IndexError_(
                f"duplicate key {key!r} in unique index {self.name!r}"
            )
        self._map[key] = row

    def build(self, keys: Sequence[Any], rows: Sequence[int]) -> None:
        """Fill this empty index: :meth:`insert` per ``(key, row)`` pair
        in order, as one dict build."""
        self._map.update(zip(keys, rows))
        if len(self._map) != len(keys):
            self._map.clear()
            for key, row in zip(keys, rows):
                self.insert(key, row)  # raises at the first duplicate

    def remove(self, key: Any) -> None:
        if self._map.pop(key, None) is None:
            raise IndexError_(f"key {key!r} not in index {self.name!r}")

    def probe(self, key: Any) -> int:
        """Row id for ``key``, or -1 (the device convention)."""
        return self._map.get(key, -1)

    @property
    def mapping(self) -> Dict[Any, int]:
        """The key -> row dict (read-only by convention; the vectorized
        backend's bulk probes iterate it directly)."""
        return self._map

    def cost_address_base(self, key: Any) -> int:
        """Device address of ``key``'s bucket header (:func:`_bucket_base`)."""
        return _bucket_base(self._region, key)

    def probe_cost_addresses(self, key: Any) -> List[Tuple[int, int]]:
        base = self.cost_address_base(key)
        return [(base, 8), (base + 8, 8)]

    def items(self) -> Iterator[Tuple[Any, int]]:
        return iter(self._map.items())

    def device_bytes(self) -> int:
        """16 B per entry (hash bucket + row id), 1.5x load headroom."""
        return int(len(self._map) * 16 * 1.5)


class MultiHashIndex:
    """Non-unique hash index: key -> sorted row ids."""

    unique = False

    def __init__(self, name: str, table: str, columns: Tuple[str, ...]) -> None:
        self.name = name
        self.table = table
        self.columns = tuple(columns)
        self._map: Dict[Any, List[int]] = {}
        self._region = (hash(name) & 0xFF) * _INDEX_REGION_STRIDE

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Any) -> bool:
        return key in self._map

    def insert(self, key: Any, row: int) -> None:
        # Keep sorted for deterministic iteration.
        bisect.insort(self._map.setdefault(key, []), row)

    def build(self, keys: Sequence[Any], rows: Sequence[int]) -> None:
        """Fill this empty index: :meth:`insert` per ``(key, row)`` pair
        in order. ``rows`` must ascend, so every bucket is born sorted."""
        mapping = self._map
        for key, row in zip(keys, rows):
            bucket = mapping.get(key)
            if bucket is None:
                mapping[key] = [row]
            else:
                bucket.append(row)

    def remove(self, key: Any, row: Optional[int] = None) -> None:
        rows = self._map.get(key)
        if not rows:
            raise IndexError_(f"key {key!r} not in index {self.name!r}")
        if row is None:
            del self._map[key]
            return
        try:
            rows.remove(row)
        except ValueError:
            raise IndexError_(
                f"row {row} not under key {key!r} in index {self.name!r}"
            ) from None
        if not rows:
            del self._map[key]

    def probe(self, key: Any) -> int:
        """First row id for ``key``, or -1."""
        rows = self._map.get(key)
        return rows[0] if rows else -1

    def probe_all(self, key: Any) -> List[int]:
        return list(self._map.get(key, ()))

    @property
    def mapping(self) -> Dict[Any, List[int]]:
        """The key -> rows dict (read-only by convention)."""
        return self._map

    def cost_address_base(self, key: Any) -> int:
        """Device address of ``key``'s bucket header (:func:`_bucket_base`)."""
        return _bucket_base(self._region, key)

    def probe_cost_addresses(self, key: Any) -> List[Tuple[int, int]]:
        base = self.cost_address_base(key)
        return [(base, 8), (base + 8, 8)]

    def items(self) -> Iterator[Tuple[Any, List[int]]]:
        return iter(self._map.items())

    def device_bytes(self) -> int:
        entries = sum(len(rows) for rows in self._map.values())
        return int((len(self._map) * 16 + entries * 8) * 1.5)
