"""Transaction types (stored procedures) and the combined kernel.

Each transaction type is "registered as a stored procedure without user
interaction", and "the codes of registered transaction types are
combined into a single kernel ... with a switch clause" (Sections 3.1,
3.2). Here:

* the *stored procedure* has two authoring forms. A *kernel*
  (:mod:`repro.core.backends.lane`) is written once, as a generator
  function over the wave op surface; :meth:`TransactionType.from_kernel`
  derives ``body`` and ``vector_body`` from it. A hand-written pair --
  ``body``, a generator function emitting micro-ops
  (:mod:`repro.gpu.ops`), plus an optional ``vector_body`` -- is for
  types that need interpreter-only ops (atomics, basic spin locks) and
  for the equivalence walls' independent reference (micro);
* the *access function* derives the affected data items from the
  parameters before execution -- the paper's requirement that conflicts
  be derivable "on the affected data items" (Appendix B), which is why
  the benchmarks' name-lookup transactions are split in two;
* the *partition function* maps parameters to PART's partition id
  (Section 5.2), or ``None`` for a cross-partition transaction;
* the :class:`ProcedureRegistry` is the combined kernel: it assigns the
  switch-case ids and builds per-transaction generators whose first op
  is ``SetBranch(type_id)`` so the SIMT engine sees the switch's
  divergence.

Undo-log classification (Appendix D): a *two-phase* transaction reads
and may abort first, then writes without aborting -- it needs no undo
log. For each non-two-phase type, the registry marks every type it may
conflict with (sharing a conflict class) as requiring undo logging.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.backends.lane import lane_stream, wave_pump
from repro.errors import RegistrationError
from repro.gpu import ops as op_ir


@dataclass(frozen=True)
class Access:
    """One basic operation's target: data item + read/write mode.

    ``item`` is a workload-chosen integer id at the conflict/lock
    granularity -- typically the primary key of the *root relation* of
    the tree-shaped schema (Section 5.1: "the primary key of the root
    relation in the tree is used as the object for locking").
    """

    item: int
    write: bool


#: Builds the op stream of one transaction from its parameters.
ProcedureBody = Callable[..., op_ir.OpStream]
#: Derives the merged access set from the parameters.
AccessFn = Callable[[Tuple[Any, ...]], List[Access]]
#: Derives PART's partition id from the parameters (None = cross-part.).
PartitionFn = Callable[[Tuple[Any, ...]], Optional[int]]


@dataclass(frozen=True)
class TransactionType:
    """A registered stored procedure and its static metadata."""

    name: str
    body: ProcedureBody
    access_fn: AccessFn
    partition_fn: Optional[PartitionFn] = None
    #: Two-phase transactions never abort after their first write, so
    #: they need no undo log (Appendix D).
    two_phase: bool = True
    #: Coarse conflict classes (e.g. table names) used to decide which
    #: types may conflict -- the "domain-specific rules on detecting
    #: whether two transactions are conflicting" a DBA supplies (App. E).
    conflict_classes: FrozenSet[str] = frozenset()
    #: Optional batched form of ``body`` for the vectorized backend: a
    #: callable that runs a whole same-type sub-wave on a
    #: :class:`~repro.core.backends.wave.WaveContext`. ``None`` means
    #: the vectorized backend runs the type one lane at a time through
    #: ``body``. See docs/ARCHITECTURE.md ("Authoring a stored
    #: procedure").
    vector_body: Optional[Callable[..., None]] = None
    #: The tables this type inserts rows into. Both of the vectorized
    #: backend's drivers (``vector_body`` and the lane-by-lane
    #: ``body``) need it: those tables' row counts, and so their device
    #: addresses, move mid-kernel. An insert into a table not declared
    #: here is refused with a ``ValueError`` before anything is staged.
    vector_inserts: FrozenSet[str] = frozenset()

    @classmethod
    def from_kernel(
        cls, kernel: Callable[[Any], Any], **fields: Any
    ) -> "TransactionType":
        """A type written once: ``body`` and ``vector_body`` are the two
        drivers of one ``kernel`` (:mod:`repro.core.backends.lane`)."""
        if not inspect.isgeneratorfunction(kernel):
            raise RegistrationError(f"{kernel!r} is not a generator function")
        return cls(
            body=lane_stream(kernel), vector_body=wave_pump(kernel), **fields
        )

    def accesses(self, params: Tuple[Any, ...]) -> List[Access]:
        return self.access_fn(params)

    def partition_of(self, params: Tuple[Any, ...]) -> Optional[int]:
        if self.partition_fn is None:
            return None
        return self.partition_fn(params)


class ProcedureRegistry:
    """The combined kernel: all registered types plus dispatch.

    Registering a new type appends a case to the switch clause and
    "recompiles the kernel" -- here, that is just assigning the next
    type id.
    """

    def __init__(self) -> None:
        self._types: Dict[str, TransactionType] = {}
        self._type_ids: Dict[str, int] = {}
        self._order: List[str] = []
        self._undo_required: Optional[FrozenSet[str]] = None

    def __len__(self) -> int:
        return len(self._types)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    @property
    def type_names(self) -> List[str]:
        return list(self._order)

    def register(self, txn_type: TransactionType) -> int:
        """Add a case to the switch; returns the assigned type id."""
        if txn_type.name in self._types:
            raise RegistrationError(
                f"transaction type {txn_type.name!r} already registered"
            )
        type_id = len(self._order)
        self._types[txn_type.name] = txn_type
        self._type_ids[txn_type.name] = type_id
        self._order.append(txn_type.name)
        self._undo_required = None  # recompile
        return type_id

    def register_many(self, txn_types: Sequence[TransactionType]) -> None:
        for txn_type in txn_types:
            self.register(txn_type)

    def get(self, name: str) -> TransactionType:
        try:
            return self._types[name]
        except KeyError:
            raise RegistrationError(
                f"unknown transaction type {name!r}"
            ) from None

    def type_id(self, name: str) -> int:
        try:
            return self._type_ids[name]
        except KeyError:
            raise RegistrationError(
                f"unknown transaction type {name!r}"
            ) from None

    # ------------------------------------------------------------------
    # Kernel-side dispatch.
    # ------------------------------------------------------------------
    def build_stream(
        self, type_name: str, params: Tuple[Any, ...]
    ) -> op_ir.OpStream:
        """Instantiate the op stream for one transaction.

        The stream enters the type's switch case first (``SetBranch``),
        then runs the stored procedure body; the body's return value is
        the transaction's result.
        """
        txn_type = self.get(type_name)
        type_id = self._type_ids[type_name]

        def stream() -> op_ir.OpStream:
            yield op_ir.SetBranch(type_id)
            result = yield from txn_type.body(*params)
            return result

        return stream()

    # ------------------------------------------------------------------
    # Undo-log classification (Appendix D).
    # ------------------------------------------------------------------
    def undo_required_types(self) -> FrozenSet[str]:
        """Types whose transactions must write undo logs.

        A type needs undo logging iff some *non-two-phase* type shares
        a conflict class with it (including itself).
        """
        if self._undo_required is None:
            risky_classes: set = set()
            for t in self._types.values():
                if not t.two_phase:
                    risky_classes |= set(t.conflict_classes)
                    if not t.conflict_classes:
                        # No class info: conservatively everything.
                        risky_classes.add("*")
            required = set()
            for t in self._types.values():
                if "*" in risky_classes or (
                    risky_classes & set(t.conflict_classes)
                ):
                    required.add(t.name)
            self._undo_required = frozenset(required)
        return self._undo_required

    def needs_undo(self, type_name: str) -> bool:
        return type_name in self.undo_required_types()
