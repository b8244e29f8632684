"""Undo logging and recovery utilities (Appendix D).

The paper eliminates logging wherever practical:

* **Re-do logging** is dropped entirely -- durability is out of scope
  ("applications may achieve durability with non-logging methods, such
  as replications on multiple machines").
* **Undo logging** is avoided for *two-phase* transactions: a read-only
  first phase that may abort, then a write phase that never aborts.
  :func:`validate_two_phase` checks a procedure instance against that
  contract (used at registration time in tests and by workload
  authors).
* For the remaining types, undo records are captured during execution
  (by the SIMT engine for TPL/K-SET, inline by the PART wrapper) and
  rolled back afterwards; :func:`rollback` replays a log against a
  store in reverse order, handling writes, buffered inserts, and
  buffered deletes.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Tuple

from repro.errors import RecoveryError
from repro.gpu import ops as op_ir

#: One undo record: (table, column, row, old_value) for writes, or the
#: sentinel forms ("__insert__", table, provisional_row, None) and
#: ("__delete__", table, row, None) for buffered mutations.
UndoEntry = Tuple[str, str, int, Any]

INSERT_SENTINEL = "__insert__"
DELETE_SENTINEL = "__delete__"
SENTINELS = (INSERT_SENTINEL, DELETE_SENTINEL)


def rollback(adapter, entries: Sequence[UndoEntry]) -> int:
    """Undo ``entries`` in reverse order against a StoreAdapter.

    Returns the number of records rolled back. Raises
    :class:`~repro.errors.RecoveryError` when an entry cannot be
    applied (a malformed log is a bug, not a recoverable condition).
    """
    count = 0
    for entry in reversed(entries):
        table, column, row, old = entry
        try:
            if table == INSERT_SENTINEL:
                adapter.cancel_insert(column, row)
            elif table == DELETE_SENTINEL:
                adapter.cancel_delete(column, row)
            else:
                adapter.write(table, column, row, old)
        except Exception as exc:
            raise RecoveryError(f"cannot roll back {entry!r}: {exc}") from exc
        count += 1
    return count


def validate_two_phase(stream: op_ir.OpStream, feed: Any = 0) -> bool:
    """Check that an op stream follows the two-phase contract.

    Drives the generator to completion, feeding ``feed`` for every
    value-producing op, and returns False if an ``Abort`` appears after
    any ``Write``/``InsertRow``/``DeleteRow``. Because the check
    consumes the stream, callers should build a throwaway instance.
    """
    wrote = False
    send: Any = None
    while True:
        try:
            op = stream.send(send)
        except StopIteration:
            return True
        kind = op.kind
        if kind in (op_ir.WRITE, op_ir.INSERT_ROW, op_ir.DELETE_ROW):
            wrote = True
        elif kind == op_ir.ABORT:
            return not wrote
        if kind in (op_ir.READ, op_ir.INDEX_PROBE, op_ir.ATOMIC_ADD,
                    op_ir.ATOMIC_CAS, op_ir.INSERT_ROW):
            send = feed
        else:
            send = None


def undo_bytes(entries: Iterable[UndoEntry]) -> int:
    """Device memory consumed by a log (16 B per record, Appendix D)."""
    return 16 * sum(1 for _ in entries)


def remap_handle_rows(
    entries: Sequence[UndoEntry],
    handle_row: "dict[int, int]",
    handle_base: int,
) -> List[UndoEntry]:
    """Rewrite handle-encoded rows in a vectorized-capture undo log.

    The vectorized backend journals before-images during the wave
    kernel, *before* the replay materialises staged inserts -- rows the
    wave itself inserted are therefore recorded under their encoded
    handle (``handle_base + handle``). Once the replay has assigned
    physical row ids (``handle -> row``), this rewrites those entries
    to the exact ids the interpreter would have logged. Entries naming
    real rows pass through untouched.
    """
    out: List[UndoEntry] = []
    for table, column, row, old in entries:
        if row >= handle_base:
            row = handle_row[row - handle_base]
        out.append((table, column, row, old))
    return out


# ---------------------------------------------------------------------------
# Redo logging (the durability layer's write-ahead records).
#
# The paper drops re-do logging on the single device ("applications may
# achieve durability with non-logging methods, such as replications on
# multiple machines"); the cluster runtime takes exactly that route --
# per-shard WALs shipped to replicas (repro.cluster.durability). A redo
# entry is one *physical* mutation in application order; replaying a
# shard's entries in order against a checkpoint of its partition is
# byte-identical to the original execution, because the simulator is
# deterministic and the entries capture the post-image of every store
# mutation (including abort rollbacks, which appear as ordinary writes
# and cancel records).
# ---------------------------------------------------------------------------

#: One redo record: (kind, table, column, row, payload). ``column`` is
#: empty and ``payload`` is the inserted row tuple for inserts; both
#: are empty/None for deletes and cancels.
RedoEntry = Tuple[str, str, str, int, Any]

REDO_WRITE = "write"
REDO_INSERT = "insert"
REDO_DELETE = "delete"
REDO_CANCEL_INSERT = "cancel-insert"
REDO_CANCEL_DELETE = "cancel-delete"


def apply_redo(adapter, entries: Sequence[RedoEntry]) -> int:
    """Apply redo ``entries`` in order against a StoreAdapter.

    Returns the number of entries applied. Raises
    :class:`~repro.errors.RecoveryError` when an entry cannot be
    applied, or when a replayed insert lands on a different physical
    row than it did originally (replay divergence -- the checkpoint
    and the log disagree).
    """
    count = 0
    for entry in entries:
        kind, table, column, row, payload = entry
        try:
            if kind == REDO_WRITE:
                adapter.write(table, column, row, payload)
            elif kind == REDO_INSERT:
                landed = adapter.insert(table, payload)
                if landed != row:
                    raise RecoveryError(
                        f"replayed insert into {table!r} landed on row "
                        f"{landed}, originally row {row}: checkpoint and "
                        "WAL disagree"
                    )
            elif kind == REDO_DELETE:
                adapter.delete(table, row)
            elif kind == REDO_CANCEL_INSERT:
                adapter.cancel_insert(table, row)
            elif kind == REDO_CANCEL_DELETE:
                adapter.cancel_delete(table, row)
            else:
                raise RecoveryError(f"unknown redo kind {kind!r}")
        except RecoveryError:
            raise
        except Exception as exc:
            raise RecoveryError(f"cannot redo {entry!r}: {exc}") from exc
        count += 1
    return count


def redo_bytes(entries: Iterable[RedoEntry]) -> int:
    """Wire size of a redo log: 16 B header per entry plus payload."""
    total = 0
    for kind, _table, _column, _row, payload in entries:
        total += 16
        if kind == REDO_WRITE:
            total += len(payload) if isinstance(payload, (str, bytes)) else 8
        elif kind == REDO_INSERT:
            for value in payload:
                total += (
                    len(value) if isinstance(value, (str, bytes)) else 8
                )
    return total
