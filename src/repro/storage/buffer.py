"""Mutation journal backing the temporary insert buffer (Section 3.2).

The paper stages inserts in "a temporary buffer that is sufficiently
large for the new inserted data" and applies them as a batched update
after the kernel. In this reproduction the *cost* of that design is
preserved (buffer-tail allocation is an atomicAdd, the batch apply is a
streaming pass, both charged by the executors), while the *functional*
effect of an insert or delete is applied immediately so that later
transactions in the same bulk observe it -- required for Definition 1
correctness when, e.g., a PART thread runs a TPC-C NEW_ORDER and then
a DELIVERY of the same warehouse back to back.

What remains of the buffer at the functional level is this journal: the
set of rows inserted/deleted since the last batch apply, which is what
abort rollback needs to cancel a transaction's mutations.
"""

from __future__ import annotations

from typing import Dict, Set


class MutationJournal:
    """Tracks inserts/deletes between batch boundaries."""

    def __init__(self) -> None:
        self._inserted: Dict[str, Set[int]] = {}
        self._deleted: Dict[str, Set[int]] = {}
        self.total_inserts = 0
        self.total_deletes = 0
        #: Batch boundaries crossed so far. The durability layer stamps
        #: this into WAL records so replayed state can be audited
        #: against the batch boundary it was captured at.
        self.epoch = 0

    # ------------------------------------------------------------------
    def record_insert(self, table: str, row: int) -> None:
        self._inserted.setdefault(table, set()).add(row)
        self.total_inserts += 1

    def record_delete(self, table: str, row: int) -> None:
        self._deleted.setdefault(table, set()).add(row)
        self.total_deletes += 1

    def forget_insert(self, table: str, row: int) -> None:
        self._inserted.get(table, set()).discard(row)

    def forget_delete(self, table: str, row: int) -> None:
        self._deleted.get(table, set()).discard(row)

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        inserted = sum(len(rows) for rows in self._inserted.values())
        deleted = sum(len(rows) for rows in self._deleted.values())
        return inserted + deleted

    def clear(self) -> None:
        """Batch boundary: the staged mutations become permanent."""
        self._inserted.clear()
        self._deleted.clear()
        self.epoch += 1
