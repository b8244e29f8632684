"""Device-memory interface between the SIMT engine and storage.

The simulator never imports storage: it sees a kernel's store only
through :class:`DeviceStore`. The engine's store is
:class:`repro.storage.catalog.StoreAdapter` over a ``Database``'s
column or row store (the cluster leader's host pass wraps several);
tests and examples that drive the simulator directly use it too, so
they run on the layout the engine really uses.

Addresses are flat byte offsets in a pretend device address space. The
cost model only uses them for *coalescing* -- deciding how many 64 B
transactions one warp access needs -- so the only property that matters
is relative layout: column stores place consecutive rows of a column
contiguously (coalesced), row stores stride them by the row width
(uncoalesced). That is precisely the effect behind the paper's
column-vs-row result (Appendix F.2).
"""

from __future__ import annotations

from typing import Any, List, Protocol, Sequence, Tuple


class DeviceStore(Protocol):
    """What the SIMT engine needs from a storage backend."""

    def read(self, table: str, column: str, row: int) -> Any:
        """Return ``table.column[row]``."""

    def write(self, table: str, column: str, row: int, value: Any) -> Any:
        """Set ``table.column[row]``; return the previous value."""

    def address_of(self, table: str, column: str, row: int) -> Tuple[int, int]:
        """Return ``(byte_address, width)`` of the cell for coalescing."""

    def probe(self, index: str, key: Any) -> int:
        """Hash-index lookup; row id or -1."""

    def probe_cost_addresses(self, index: str, key: Any) -> List[Tuple[int, int]]:
        """Addresses touched by one probe (for traffic accounting)."""

    def insert(self, table: str, values: Sequence[Any]) -> int:
        """Buffer an insert; return the provisional row id."""

    def delete(self, table: str, row: int) -> None:
        """Buffer a delete of ``row``."""

    def cancel_insert(self, table: str, row: int) -> None:
        """Roll back one insert (transaction abort)."""

    def cancel_delete(self, table: str, row: int) -> None:
        """Roll back one delete (transaction abort)."""

    def row_width(self, table: str) -> int:
        """Bytes per row (used to charge insert traffic)."""
