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
  and :func:`rollback`, the one code that undoes a transaction, replays
  them in reverse: after the kernel (TPL, K-SET), at the abort (PART's
  inserts and deletes), or inline in :func:`run_stream`, the serial
  interpreter of the CPU engine, the cross-shard leader and the ad-hoc
  launch.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, List, Sequence, Tuple

from repro.errors import ExecutionError, RecoveryError
from repro.gpu import ops as op_ir

#: One undo record: (table, column, row, old_value) for writes, or the
#: sentinel forms (INSERT_SENTINEL, table, inserted_row, None) and
#: (DELETE_SENTINEL, table, row, None) for inserts and deletes.
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


def run_stream(
    stream: op_ir.OpStream,
    adapter: Any,
    cost: Any,
    *,
    who: str,
    refused: FrozenSet[int] = frozenset(),
) -> Tuple[float, bool, str, Any]:
    """Run one transaction's op stream to completion, alone.

    ``CpuEngine``, the cross-shard leader and ``SIMTEngine.launch_serial``
    all execute through it. ``adapter`` is any DeviceStore-protocol store
    view; ``cost`` prices each op (``CpuCostModel``, or the ad-hoc
    launch's serial core); ``who`` names the transaction in errors; an op
    whose kind is in ``refused`` is an ExecutionError. Returns ``(cycles,
    committed, abort_reason, value)``. An abort rolls the transaction's
    log back inline: nothing else has seen its effects.
    """
    cycles = 0.0
    undo: List[UndoEntry] = []
    send: Any = None
    while True:
        try:
            op = stream.send(send)
        except StopIteration as stop:
            return cycles, True, "", stop.value
        except Exception as exc:
            raise ExecutionError(f"{who} raised {exc!r}") from exc
        send = None
        kind = op.kind
        if kind == op_ir.READ:
            send = adapter.read(op.table, op.column, op.row)
            cycles += cost.memory_access()
        elif kind == op_ir.WRITE:
            old = adapter.write(op.table, op.column, op.row, op.value)
            undo.append((op.table, op.column, op.row, old))
            cycles += cost.memory_access()
        elif kind == op_ir.COMPUTE:
            cycles += cost.compute(op.amount)
        elif kind == op_ir.SFU_COMPUTE:
            cycles += cost.sfu(op.amount)
        elif kind == op_ir.INDEX_PROBE:
            send = adapter.probe(op.index, op.key)
            cycles += cost.memory_access(2)
        elif kind == op_ir.INSERT_ROW:
            send = adapter.insert(op.table, op.values)
            undo.append((INSERT_SENTINEL, op.table, send, None))
            cycles += cost.insert(adapter.row_width(op.table))
        elif kind == op_ir.DELETE_ROW:
            adapter.delete(op.table, op.row)
            undo.append((DELETE_SENTINEL, op.table, op.row, None))
            cycles += cost.memory_access()
        elif kind == op_ir.ABORT:
            rollback(adapter, undo)
            cycles += cost.abort()
            for entry in undo:
                cycles += cost.undo(entry)
            return cycles, False, op.reason, None
        elif kind in refused:
            raise ExecutionError(
                f"{who} issued {type(op).__name__}, which this serial "
                "host pass does not run"
            )
        elif kind in (op_ir.LOCK_ACQUIRE, op_ir.LOCK_RELEASE,
                      op_ir.SET_BRANCH):
            cycles += cost.compute(0)  # no work of its own
        else:  # pragma: no cover - closed op table
            raise ExecutionError(f"unknown op kind {kind}")


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
        if kind in (op_ir.READ, op_ir.INDEX_PROBE, op_ir.INSERT_ROW):
            send = feed
        else:
            send = None


def undo_bytes(entries: Iterable[UndoEntry]) -> int:
    """Device memory consumed by a log (16 B per record, Appendix D)."""
    return 16 * sum(1 for _ in entries)


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
