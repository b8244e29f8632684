"""Micro-op instruction set interpreted by the SIMT simulator.

Stored procedures in this reproduction are Python *generator functions*
that yield micro-ops and receive their results back via ``send``. A
generator is the natural encoding of a resumable GPU thread: the SIMT
engine (:mod:`repro.gpu.simt`) steps thousands of such generators in
warp lockstep, one op per thread per round, exactly as an SM issues one
warp instruction at a time.

The op vocabulary mirrors what the paper's CUDA kernels do:

* :class:`Read` / :class:`Write` -- a *basic operation* in the paper's
  sense (Section 4.1): a read or write of one data item (one column
  value of one row).
* :class:`Compute` / :class:`SfuCompute` -- ALU work; the micro
  benchmark's ``sinf`` loop (Section 6.1) is ``SfuCompute``.
* :class:`LockAcquire` / :class:`LockRelease` -- the spin locks of
  Appendix C. With ``key=None`` this is the basic 0/1 spin lock of
  Figure 10 (may deadlock); with an integer key it is the counter-based
  deterministic lock of Figure 11. These are the only atomics a kernel
  issues.
* :class:`IndexProbe` -- a hash-index lookup (two dependent memory
  reads' worth of traffic).
* :class:`InsertRow` / :class:`DeleteRow` -- deferred mutations routed
  through the temporary insert buffer (Section 3.2: "for transactions
  with insertions, we allocate a temporary buffer ... after the kernel
  execution, we perform a batched update").
* :class:`Abort` -- the transaction aborts; the executor rolls back via
  the undo log if the transaction type required one (Appendix D).

Each op class carries a small integer ``kind`` used for fast dispatch
and for warp-divergence detection: threads of one warp whose current
ops differ in ``(branch, kind)`` are serialised, which is how branch
divergence manifests in the cost model. Memory ops do not diverge on
*address* (SIMT lanes may touch different addresses in one
instruction), only on which instruction they sit at.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

# Kind tags (ints for fast dispatch in the simulator hot loop).
READ = 0
WRITE = 1
COMPUTE = 2
SFU_COMPUTE = 3
LOCK_ACQUIRE = 4
LOCK_RELEASE = 5
INDEX_PROBE = 8
INSERT_ROW = 9
DELETE_ROW = 10
ABORT = 11
SET_BRANCH = 13

KIND_NAMES = {
    READ: "READ",
    WRITE: "WRITE",
    COMPUTE: "COMPUTE",
    SFU_COMPUTE: "SFU_COMPUTE",
    LOCK_ACQUIRE: "LOCK_ACQUIRE",
    LOCK_RELEASE: "LOCK_RELEASE",
    INDEX_PROBE: "INDEX_PROBE",
    INSERT_ROW: "INSERT_ROW",
    DELETE_ROW: "DELETE_ROW",
    ABORT: "ABORT",
    SET_BRANCH: "SET_BRANCH",
}


class Op:
    """Base class for all micro-ops. Subclasses set ``kind``."""

    __slots__ = ()
    kind: int = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = KIND_NAMES.get(self.kind, str(self.kind))
        fields = ", ".join(
            f"{slot}={getattr(self, slot)!r}"
            for slot in getattr(self, "__slots__", ())
        )
        return f"{name}({fields})"


class Read(Op):
    """Read ``table.column[row]``; the op's result is the value."""

    __slots__ = ("table", "column", "row")
    kind = READ

    def __init__(self, table: str, column: str, row: int) -> None:
        self.table = table
        self.column = column
        self.row = row


class Write(Op):
    """Write ``value`` into ``table.column[row]``."""

    __slots__ = ("table", "column", "row", "value")
    kind = WRITE

    def __init__(self, table: str, column: str, row: int, value: Any) -> None:
        self.table = table
        self.column = column
        self.row = row
        self.value = value


class Compute(Op):
    """``amount`` scalar ALU operations (cycles on one SP lane)."""

    __slots__ = ("amount",)
    kind = COMPUTE

    def __init__(self, amount: int) -> None:
        self.amount = int(amount)


class SfuCompute(Op):
    """``amount`` transcendental ops (``sinf`` calls) on the SFU."""

    __slots__ = ("amount",)
    kind = SFU_COMPUTE

    def __init__(self, amount: int) -> None:
        self.amount = int(amount)


class LockAcquire(Op):
    """Acquire the spin lock ``lock_id``.

    With ``key=None`` this is the basic 0/1 spin lock (Figure 10):
    whoever wins the ``atomicCAS`` race proceeds -- non-deterministic
    order and deadlock-prone across multiple locks.

    With an integer ``key`` this is the counter lock (Figure 11): the
    thread spins until the lock's counter equals ``key``. Keys are
    assigned from T-dependency ranks, which both orders conflicting
    transactions by timestamp and makes deadlock impossible. A reader
    whose run shares a key passes the gate without taking exclusive
    ownership (``shared=True``).
    """

    __slots__ = ("lock_id", "key", "shared")
    kind = LOCK_ACQUIRE

    def __init__(
        self, lock_id: int, key: Optional[int] = None, shared: bool = False
    ) -> None:
        self.lock_id = lock_id
        self.key = key
        self.shared = shared


class LockRelease(Op):
    """Release the spin lock ``lock_id``.

    A counter-lock release bumps the counter to the next key ("flag ==
    marked" in Figure 11). For a shared reader run the engine maintains
    a countdown so that exactly the last finishing reader advances the
    counter.
    """

    __slots__ = ("lock_id",)
    kind = LOCK_RELEASE

    def __init__(self, lock_id: int) -> None:
        self.lock_id = lock_id


class IndexProbe(Op):
    """Probe hash index ``index`` with ``key``; result is a row id or -1."""

    __slots__ = ("index", "key")
    kind = INDEX_PROBE

    def __init__(self, index: str, key: Any) -> None:
        self.index = index
        self.key = key


class InsertRow(Op):
    """Append ``values`` to ``table``'s insert buffer.

    The result is the *provisional* row id the row will occupy after the
    post-kernel batched apply (Section 3.2).
    """

    __slots__ = ("table", "values")
    kind = INSERT_ROW

    def __init__(self, table: str, values: Sequence[Any]) -> None:
        self.table = table
        self.values = values


class DeleteRow(Op):
    """Mark ``table`` row ``row`` deleted (applied with the batch)."""

    __slots__ = ("table", "row")
    kind = DELETE_ROW

    def __init__(self, table: str, row: int) -> None:
        self.table = table
        self.row = row


class Abort(Op):
    """Abort the transaction; the result pool records ``reason``."""

    __slots__ = ("reason",)
    kind = ABORT

    def __init__(self, reason: str = "") -> None:
        self.reason = reason


class SetBranch(Op):
    """Enter a branch of the combined kernel's ``switch`` clause.

    The registry wraps every stored procedure so its first op is
    ``SetBranch(type_id)``: from then on the thread diverges from
    warp-mates sitting in a different case, even where the per-op
    shapes coincide -- the compiled switch puts each case at a distinct
    PC (Section 3.2). Threads that execute several transactions in a
    row (PART) re-tag themselves at each transaction boundary.
    """

    __slots__ = ("tag",)
    kind = SET_BRANCH

    def __init__(self, tag: int) -> None:
        self.tag = tag


#: Type alias for a stored procedure body: a generator over micro-ops.
OpStream = Generator[Op, Any, None]
