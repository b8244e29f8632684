"""Batched wave execution: NumPy column kernels + exact op traces.

A *vector kernel* (``TransactionType.vector_body``) executes every
transaction of one type in a wave at once: gather the touched column
values with fancy indexing, compute whole-array, and scatter the
surviving lanes' writes back (aborted lanes are masked out -- the
conflict-masked scatter). While doing so it records, through
:class:`WaveContext`, the exact per-thread micro-op trace the
interpreter would have produced: op kind, divergence branch, and
memory addresses per lane per op, folded by op shape into
:class:`TraceRecorder`'s one store as it is recorded. The cost replay
(:mod:`repro.core.backends.replay`) turns that trace into a
:class:`~repro.gpu.costmodel.KernelStats` identical to the SIMT
interpreter's, which is what makes the two backends agree on the
simulated clock to the last cycle.

Kernel-authoring contract (checked where cheap, documented here; the
column rules of the kernel boundary are on :class:`WaveContext`):

* a hand-written vector body (micro's are the built-in ones) must
  record per lane exactly the ops its generator body yields (a
  single-source kernel, lane.py, cannot differ);
* a type that aborts after its first write journals before-images
  (``capture_undo``, one bulk gather per write step); on the PART
  sweep such a type rolls back inline, lane by lane, as the PART
  wrapper does (:func:`run_lane`'s ``inline_rollback``);
* a type inserts only into the tables its ``vector_inserts`` declares
  (an undeclared insert is refused before anything is staged);
* a lane must not read a cell it wrote earlier in the same wave
  (conflict-free waves make cross-lane reads of written cells
  impossible; same-lane re-reads are a kernel-authoring error);
* a lane may read, write, and delete rows staged by a same-wave insert
  (the overlay resolves reads; writes stage as *handle writes* applied
  by the replay after the insert materialises -- TPC-C's DELIVERY
  writing an order a same-bulk NEW_ORDER created is the canonical
  case). Handle writes must not target indexed columns: the
  interpreter never re-indexes on write, and neither does the overlay;
  a staged row's handle in a result value becomes its row id after
  the replay (:meth:`WaveStore.publish`);
* inserts/deletes are staged in a :class:`WaveStore` overlay and
  applied to the real store in interpreter event order by the replay,
  so physical row ids are byte-identical to the interpreted backend.

Every launch runs a same-type sub-wave through :func:`run_sub_wave`,
the one owner of the width fork. At most :data:`NARROW_WIDTH` lanes
(contended TPL grants, a K-SET wave's tail, a PART slot) build no
:class:`WaveContext`: :func:`run_lane` runs each lane's op stream, in
ascending lane order, on the same :class:`WaveStore`, recording
through :meth:`TraceRecorder.record_scalar` what a ``WaveContext``
would (tests/property/test_one_lane_driver.py diffs the two); so
does a sub-wave of any width whose type has no vector body or rolls
back inline. A wider sub-wave builds one ``WaveContext``, whose every
op has one path: its lane selection is an index NumPy applies alike to
all lanes or some.
"""

from __future__ import annotations

import bisect
from itertools import chain, compress, repeat
from typing import (
    Any, Collection, Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
    Set, Tuple,
)

import numpy as np

from repro.core import tx_logging
from repro.gpu import ops as op_ir
from repro.storage.catalog import Database, StoreAdapter, static_map_cost_base

#: Encoded row ids at or above this value reference a pending insert
#: (handle = encoded - HANDLE_BASE); real row ids stay below it.
HANDLE_BASE = 1 << 44

#: Byte offsets of the two 8-byte words one index probe touches,
#: relative to its cost-address base.
_PROBE_WORDS = np.array([0, 8], dtype=np.int64)

#: The lane index of a wave op whose selection is every lane.
_EVERY_LANE = slice(None)

#: Result values a staged row's handle can sit in: a handle is a Python
#: int, returned as is or inside a tuple or a list.
_NESTED = (tuple, list)
_MAY_HOLD_HANDLE = (int, *_NESTED)


class _TableAddressing:
    """Device-address arithmetic for one table over one launch: the
    schema's static layout (:attr:`TableSchema.device_columns`, built
    once per schema) plus the row count as the launch found it."""

    __slots__ = ("base", "n_rows", "columns")

    def __init__(self, db: Database, table: str) -> None:
        tbl = db.table(table)
        self.base = db.table_base_address(table)
        self.n_rows = tbl.n_rows
        #: column -> (resident prefix weight, width). The column's
        #: device offset is ``pre_w * max(n_rows, 1)`` -- the layout
        #: contract of ColumnTable.column_device_offset.
        self.columns = tbl.schema.device_columns

    def addresses(self, column: str, rows: Any, n_rows: Optional[np.ndarray] = None):
        """Vectorized ColumnTable.cell_address + table base of ``rows``
        (an array, or one row id), at the launch's row count or at
        per-row counts ``n_rows``."""
        pre_w, width = self.columns[column]
        if n_rows is None:
            offset = pre_w * max(self.n_rows, 1)
        else:
            offset = pre_w * np.maximum(n_rows, 1)
        return self.base + offset + rows * width, width


class WaveStore:
    """Adapter view for vector kernels: bulk probes/gathers plus a
    staging overlay for inserts and deletes.

    Mutation staging exists for PART, where one kernel runs a whole
    bulk and a partition's later transactions must observe its earlier
    ones' inserts/deletes (K-SET waves are conflict-free, so the
    overlay stays empty during probes there). The replay applies the
    staged mutations to the real store in interpreter event order.
    """

    def __init__(
        self, adapter: StoreAdapter, mutating_tables: FrozenSet[str]
    ) -> None:
        self.adapter = adapter
        self.db = adapter.db
        #: Tables that may gain rows this launch: reads of them resolve
        #: device addresses late (n_rows moves mid-kernel).
        self.mutating_tables = mutating_tables
        self._addr: Dict[str, _TableAddressing] = {}
        #: Staged inserts in staging order; handle = list index.
        self.pending_inserts: List[Tuple[str, Tuple[Any, ...]]] = []
        #: (table, row-or-handle-encoded) staged deletes.
        self.pending_deletes: List[Tuple[str, int]] = []
        #: Writes to rows staged by a same-launch insert, in staging
        #: order: (table, column, handle, value). Applied by the replay
        #: through the adapter after the insert materialises, so the
        #: redo stream keeps the interpreter's per-cell order (insert
        #: original values, then write).
        self.pending_handle_writes: List[Tuple[str, str, int, Any]] = []
        #: (handle, column index) -> latest staged value, for gathers.
        self._handle_overrides: Dict[Tuple[int, int], Any] = {}
        #: handle -> physical row id, published by the replay once the
        #: staged inserts have materialised (:meth:`row_of` reads it).
        self.handle_row: Dict[int, int] = {}
        #: Aborted PART transactions' insert/delete sentinels, in
        #: rollback order, by the ``(thread, round)`` event the replay
        #: rolls them back right after (:meth:`cancel`).
        self.pending_cancels: Dict[Tuple[int, int], List[Tuple[Any, ...]]] = {}
        #: table -> [(index, column positions)] -- the per-row key
        #: construction is the mutation-staging hot path.
        self._index_info: Dict[str, List[Tuple[Any, Tuple[int, ...]]]] = {}
        #: table -> staged handles whose index-overlay entries have not
        #: been built yet. Folding is lazy: insert-only waves (the
        #: common case) never pay for overlay keys nobody probes.
        self._unfolded: Dict[str, List[int]] = {}
        # Probe overlays, populated lazily once a mutation is staged.
        self._unique_add: Dict[str, Dict[Any, int]] = {}
        self._unique_del: Dict[str, set] = {}
        self._multi_add: Dict[str, Dict[Any, List[int]]] = {}
        self._multi_del: Dict[str, Dict[Any, set]] = {}
        self._dirty = False
        #: Launch threads some op answered with a staged row's handle
        #: (an insert, or a probe that met a staged row): the only
        #: threads whose results :meth:`publish` decodes.
        self.handed: Set[int] = set()

    # -- addressing ------------------------------------------------------
    def addressing(self, table: str) -> _TableAddressing:
        info = self._addr.get(table)
        if info is None:
            info = self._addr[table] = _TableAddressing(self.db, table)
        return info

    def cells(self, table: str, column: str, rows: Any) -> Tuple[Any, int, Any]:
        """``(addr, width, deferred)`` of a READ/WRITE of ``rows`` (an
        array, or one row id): device addresses resolved now, or -- on a
        table that may gain rows this launch -- the rows, for the replay
        to resolve."""
        info = self.addressing(table)
        if table in self.mutating_tables:
            return None, info.columns[column][1], (table, column, rows)
        addr, width = info.addresses(column, rows)
        return addr, width, None

    # -- staged handles, once the replay has materialised them ---------
    def row_of(self, row_enc: int) -> int:
        """The physical row id of an encoded row: a real row id as it
        is, a staged insert's handle as the row the replay gave it."""
        if row_enc >= HANDLE_BASE:
            return self.handle_row[row_enc - HANDLE_BASE]
        return row_enc

    def rows_of(self, rows_enc: Any) -> np.ndarray:
        """:meth:`row_of` of every encoded row of an array."""
        rows = np.array(rows_enc, dtype=np.int64)
        handles = np.flatnonzero(rows >= HANDLE_BASE)
        if len(handles):
            rows[handles] = list(map(self.row_of, rows[handles].tolist()))
        return rows

    def logged(self, entries: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
        """An undo log journalled during the launch, each entry's row
        decoded (:meth:`row_of`): the log the interpreter keeps."""
        return [(table, col, self.row_of(row), old) for table, col, row, old in entries]

    def publish(self, values: List[Any], at: Collection[int]) -> None:
        """Give ``values[i]``, for each ``i`` in ``at``, as the
        interpreter returns it: every staged insert's handle -- an int
        in ``[HANDLE_BASE, HANDLE_BASE + staged inserts)``, alone or
        inside a tuple or a list -- becomes its row id
        (:meth:`row_of`). ``at`` holds the result positions of the
        threads in :attr:`handed`; no other result can hold a handle."""
        top = HANDLE_BASE + len(self.pending_inserts)
        kinds = map(type, map(values.__getitem__, at))
        for i in compress(at, map(_MAY_HOLD_HANDLE.__contains__, kinds)):
            values[i] = self._published(values[i], top)

    def _published(self, value: Any, top: int) -> Any:
        # A method, not a closure over itself: a self-referencing
        # closure is a reference cycle that keeps this store alive
        # until the collector runs.
        kind = type(value)
        if kind is int:
            return self.row_of(value) if HANDLE_BASE <= value < top else value
        if kind in _NESTED:
            return kind([self._published(item, top) for item in value])
        return value

    # -- probes ----------------------------------------------------------
    def probe_unique(self, index: str, keys: Sequence[Any]) -> np.ndarray:
        """Adapter.probe for a static map or unique index, batched.

        Returns encoded rows: ``-1`` miss, real row id, or
        ``HANDLE_BASE + handle`` for a staged insert's row. The real
        index answers every key in one pass; only the keys a staged
        insert or delete of this launch may answer are re-probed
        through :meth:`probe_unique1`.
        """
        static = self.db.static_maps.get(index)
        if static is not None:
            return np.fromiter(map(static.get, keys, repeat(-1)), np.int64, len(keys))
        mapping = self.db.index(index).mapping
        rows = np.fromiter(map(mapping.get, keys, repeat(-1)), np.int64, len(keys))
        for i in self._staged_hits(index, keys, self._unique_add, self._unique_del):
            rows[i] = self.probe_unique1(index, keys[i])
        return rows

    def _staged_hits(self, index: str, keys: Sequence[Any], *overlays: Any) -> Set[int]:
        """Positions of ``keys`` that meet a staged insert or delete of
        ``index`` (its entry in the ``overlays``), found in C-level
        membership passes."""
        hits: Set[int] = set()
        if self._dirty:
            self._fold(self.db.index(index).table)
            for staged in filter(None, (o.get(index) for o in overlays)):
                hits.update(compress(range(len(keys)), map(staged.__contains__, keys)))
        return hits

    def probe_unique1(self, index: str, key: Any) -> int:
        """Single-key :meth:`probe_unique` (:func:`run_lane`'s probe, and
        the owner of the staged-overlay precedence: a staged insert
        wins over a staged delete, which wins over the real index)."""
        static = self.db.static_maps.get(index)
        if static is not None:
            return static.get(key, -1)
        ix = self.db.index(index)
        if not self._dirty:
            return ix.mapping.get(key, -1)
        self._fold(ix.table)
        added = self._unique_add.get(index)
        if added is not None and key in added:
            return added[key]
        removed = self._unique_del.get(index)
        if removed is not None and key in removed:
            return -1
        return ix.mapping.get(key, -1)

    def probe_multi1(self, index: str, key: Any) -> List[int]:
        """Single-key :meth:`probe_multi` (:func:`run_lane`'s probe, and
        the owner of the staged-overlay merge: real rows minus staged
        deletes, then staged inserts)."""
        ix = self.db.index(index)
        rows = list(ix.mapping.get(key, ()))
        if not self._dirty:
            return rows
        self._fold(ix.table)
        removed = self._multi_del.get(index)
        gone = removed.get(key) if removed is not None else None
        if gone:
            rows = [r for r in rows if r not in gone]
        added = self._multi_add.get(index)
        extra = added.get(key) if added is not None else None
        if extra:
            # Staged rows materialise at the table tail, above every
            # existing id, and in staging order -- exactly where the
            # sorted multi-index would put them.
            rows = rows + extra
        return rows

    def probe_cost_base1(self, index: str, key: Any) -> int:
        """Single-key cost-address base (see probe_cost_addresses)."""
        if index in self.db.static_maps:
            return static_map_cost_base(index, key)
        return self.db.index(index).cost_address_base(key)

    def probe_multi(self, index: str, keys: Sequence[Any]) -> List[List[int]]:
        """MultiHashIndex.probe_all, batched, overlay-aware (as
        :meth:`probe_unique`, through :meth:`probe_multi1`)."""
        mapping = self.db.index(index).mapping
        rows = [list(mapping.get(k, ())) for k in keys]
        for i in self._staged_hits(index, keys, self._multi_add, self._multi_del):
            rows[i] = self.probe_multi1(index, keys[i])
        return rows

    def probe_cost_addresses(self, index: str, keys: Sequence[Any]) -> np.ndarray:
        """The two per-probe cost addresses, shape ``(len(keys), 2)``.

        Batched form of the interpreter's per-probe
        ``probe_cost_addresses``, built on the same formula owners
        (:func:`repro.storage.catalog.static_map_cost_base`,
        :func:`repro.storage.index.bucket_bases`).
        """
        if index in self.db.static_maps:
            base = np.fromiter(
                (static_map_cost_base(index, k) for k in keys),
                np.int64,
                len(keys),
            )
        else:
            base = self.db.index(index).cost_address_bases(keys)
        return base[:, None] + _PROBE_WORDS

    # -- gathers ---------------------------------------------------------
    def gather(self, table: str, column: str, rows_enc: np.ndarray) -> np.ndarray:
        """Bulk read, resolving staged-insert handles from the overlay."""
        tbl = self.db.table(table)
        if not self.pending_inserts:  # nothing staged: no handle to find
            return tbl.gather(column, rows_enc)
        handles = rows_enc >= HANDLE_BASE
        if not handles.any():
            return tbl.gather(column, rows_enc)
        col_idx = tbl.schema.column_index(column)
        real = ~handles  # gather only real rows: the table may be empty
        values = tbl.gather(column, rows_enc[real])
        out = np.empty(len(rows_enc), dtype=values.dtype)
        out[real] = values
        for i in np.flatnonzero(handles):
            handle = int(rows_enc[i]) - HANDLE_BASE
            if (handle, col_idx) in self._handle_overrides:
                out[i] = self._handle_overrides[(handle, col_idx)]
            else:
                _, values = self.pending_inserts[handle]
                out[i] = values[col_idx]
        return out

    def gather1(self, table: str, column: str, row_enc: int) -> Any:
        """One cell of :meth:`gather` as the Python value
        :meth:`ColumnTable.read` returns (:func:`run_lane`'s read)."""
        if row_enc >= HANDLE_BASE:
            rows = np.asarray([row_enc], dtype=np.int64)
            return self.gather(table, column, rows).item(0)
        return self.db.table(table).read(column, row_enc)

    # -- mutation staging ------------------------------------------------
    def _indexes_of(self, table: str) -> List[Tuple[Any, Tuple[int, ...]]]:
        info = self._index_info.get(table)
        if info is None:
            schema = self.db.table(table).schema
            info = self._index_info[table] = [
                (ix, tuple(schema.column_index(c) for c in ix.columns))
                for ix in self.db.indexes_on(table)
            ]
        return info

    def stage_inserts(
        self, table: str, rows: List[Tuple[Any, ...]]
    ) -> np.ndarray:
        """Stage one insert per row tuple; returns the encoded handle
        rows."""
        first = len(self.pending_inserts)
        self.pending_inserts.extend(zip(repeat(table), rows))
        handles = range(first, len(self.pending_inserts))
        self._dirty = True
        self._unfolded.setdefault(table, []).extend(handles)
        return HANDLE_BASE + np.arange(first, handles.stop, dtype=np.int64)

    def _fold(self, table: str) -> None:
        """Build the overlay index entries of ``table``'s staged
        inserts, in staging order (called before any probe or staged
        delete that could observe them)."""
        pending = self._unfolded.get(table)
        if not pending:
            return
        for handle in pending:
            _, values = self.pending_inserts[handle]
            enc = HANDLE_BASE + handle
            for ix, cols in self._indexes_of(table):
                key = (
                    values[cols[0]]
                    if len(cols) == 1
                    else tuple(values[i] for i in cols)
                )
                if ix.unique:
                    self._unique_add.setdefault(ix.name, {})[key] = enc
                    self._unique_del.get(ix.name, set()).discard(key)
                else:
                    self._multi_add.setdefault(ix.name, {}).setdefault(
                        key, []
                    ).append(enc)
        pending.clear()

    def stage_handle_write(
        self, table: str, column: str, handle: int, value: Any
    ) -> None:
        """Stage one write to a row a same-launch insert created.

        The value becomes visible to later gathers of the handle row
        immediately; the physical write is applied by the replay after
        the insert materialises (per-cell order matches the
        interpreter: insert first, then the write). Indexed columns
        are rejected -- the interpreter never re-indexes on write, so
        an indexed-column write would silently desynchronise probes.
        """
        for ix, _cols in self._indexes_of(table):
            if column in ix.columns:
                raise ValueError(
                    f"vector kernels cannot write indexed column "
                    f"{table}.{column} of a row inserted in the same "
                    "wave"
                )
        col_idx = self.db.table(table).schema.column_index(column)
        py = value.item() if isinstance(value, np.generic) else value
        self.pending_handle_writes.append((table, column, handle, py))
        self._handle_overrides[(handle, col_idx)] = py

    def _keys(self, table: str, row_enc: int) -> List[Tuple[Any, Any]]:
        """``(index, key)`` of a real or staged row, per index of
        ``table``."""
        staged = (
            self.pending_inserts[row_enc - HANDLE_BASE][1]
            if row_enc >= HANDLE_BASE
            else None
        )
        tbl = self.db.table(table)
        out = []
        for ix, cols in self._indexes_of(table):
            if staged is None:
                key = Database._key_of(tbl, ix.columns, row_enc)
            elif len(cols) == 1:
                key = staged[cols[0]]
            else:
                key = tuple(staged[i] for i in cols)
            out.append((ix, key))
        return out

    def stage_delete(self, table: str, row_enc: int) -> None:
        """Stage one delete of a real or a staged insert's row."""
        self.pending_deletes.append((table, row_enc))
        self._dirty = True
        self._show(table, row_enc, False)

    def cancel(self, anchor: Tuple[int, int], entry: Tuple[Any, ...]) -> None:
        """Roll back one staged insert or delete of an aborted PART
        transaction (its undo sentinel): probes see it undone from here
        on, and the replay cancels it for real right after the
        ``anchor`` event -- the ``(thread, round)`` the lane recorded
        last, which is where the interpreter's wrapper rolls it back."""
        self.pending_cancels.setdefault(anchor, []).append(entry)
        sentinel, table, row_enc, _ = entry
        self._show(table, row_enc, sentinel == tx_logging.DELETE_SENTINEL)

    def _show(self, table: str, row_enc: int, visible: bool) -> None:
        """Make a real or staged row read as present (``visible``) or
        deleted to this launch's probes."""
        self._fold(table)
        for ix, key in self._keys(table, row_enc):
            if ix.unique:
                added = self._unique_add.setdefault(ix.name, {})
                removed = self._unique_del.setdefault(ix.name, set())
                if visible:
                    added[key] = row_enc
                    removed.discard(key)
                    continue
                if added.get(key) == row_enc:
                    del added[key]
                # Whether the deleted row was staged or real, the key
                # must read as absent afterwards. The del marker is
                # needed even for a staged row: folding its insert
                # discarded any marker left by an earlier real-row
                # delete under the same key, and without restoring it
                # the probe would fall through to the (stale) real
                # mapping. Probes check added before removed, so the
                # marker is always safe.
                removed.add(key)
                continue
            extra = self._multi_add.setdefault(ix.name, {}).setdefault(key, [])
            gone = self._multi_del.setdefault(ix.name, {}).setdefault(key, set())
            if not visible:
                if row_enc in extra:
                    extra.remove(row_enc)
                else:
                    gone.add(row_enc)
            elif row_enc in gone:
                gone.discard(row_enc)
            else:
                bisect.insort(extra, row_enc)


class Step(NamedTuple):
    """One op shape of a launch's trace: the same micro-op over a set
    of lanes (threads), each at its own execution round
    (:meth:`TraceRecorder.flush`). The first six fields are the shape;
    the rest hold one entry per event, or are None where the shape has
    no such field."""

    kind: int
    #: Divergence branch: a scalar tag, or one per lane.
    branch: Any
    amount: int
    width: int
    #: The table an INSERT_ROW or DELETE_ROW names.
    table: Optional[str]
    #: ``(table, column)`` of a READ/WRITE whose device address the
    #: replay resolves late: the table's row count moves mid-kernel.
    target: Optional[Tuple[str, str]]
    lanes: Any
    #: Execution round (1-based). A thread issues one op per round from
    #: its body's first round on; under the TPL lock schedule that
    #: first round follows the thread's spin on its lock gates.
    rounds: Any
    #: Resolved device address, or a probe's ``(lo, hi)`` pair.
    addr: Any
    #: Insert handles / delete encoded rows.
    payload: Any
    #: This WRITE journalled a before-image (the interpreter's
    #: per-group undo-log flush charge keys on how many did).
    undo: Any
    #: The encoded rows of a ``target`` READ/WRITE.
    rows: Any


#: The ``branch`` of an op-shape key whose branch is a per-lane field.
_PER_LANE = None


class TraceRecorder:
    """A launch's trace, folded by op shape as it is recorded, and the
    per-thread op counters.

    The one store holds one accumulator per op shape -- ``(kind, scalar
    branch, amount, width, table, deferred target, address rank,
    payload absent, undo absent)`` -- and each accumulator keeps the
    per-event fields: :meth:`record` adds array chunks,
    :meth:`record_scalar` one event's scalars. A per-lane branch is a
    per-lane field of its shape. The replay reads the store as one
    :class:`Step` per shape (:meth:`flush`) or as Python lists
    (:meth:`plain_records`). Which shape an event lands in is invisible
    to both: a thread issues at most one event per round, so the
    replay's grouping, charges and mutation order are functions of
    per-event keys alone.
    """

    def __init__(self, n_threads: int) -> None:
        self.n_threads = n_threads
        self.op_count = np.zeros(n_threads, np.int64)
        #: op shape -> (lanes, rounds, addr, payload, undo, deferred
        #: rows) lists of scalar events, then the list of array chunks
        #: ``(lanes, rounds, branch, addr, payload, undo, deferred
        #: rows)`` (a field the shape lacks is None).
        self._shapes: Dict[Any, Tuple[list, ...]] = {}
        #: Events recorded at given rounds (not in :attr:`op_count`).
        self._placed = 0
        #: A recorded op's round is ``round_base[thread] +
        #: op_count[thread]``. Every thread starts at round 1; the TPL
        #: lock scheduler moves a thread's base past its lock-acquire
        #: phase so body ops land on the rounds they really execute in.
        self.round_base = np.ones(n_threads, np.int64)
        #: Per-thread "journals before-images" flags; stamped onto
        #: WRITE events so the replay can charge the undo-log flush.
        self.undo_capture: Optional[np.ndarray] = None

    def last_event(self, lane: int) -> Tuple[int, int]:
        """``(thread, round)`` of the event ``lane`` recorded last."""
        return lane, int(self.round_base[lane] + self.op_count[lane]) - 1

    def record_scalar(
        self,
        kind: int,
        lane: int,
        branch: int,
        *,
        amount: int = 0,
        addr: Any = None,
        width: int = 8,
        deferred: Optional[Tuple[str, str, int]] = None,
        table: Optional[str] = None,
        payload: Optional[int] = None,
    ) -> None:
        """One lane's :meth:`record`, as Python scalars.

        Its one caller is :func:`run_lane`, which dispatches only
        vectorizable kinds; ``addr`` is a plain int (1-d address) or an
        ``(lo, hi)`` pair (probe addresses).
        """
        opidx = int(self.op_count[lane])
        self.op_count[lane] = opidx + 1
        undo = None
        if kind == op_ir.WRITE and self.undo_capture is not None:
            undo = bool(self.undo_capture[lane])
        key = (
            kind, branch, amount, width, table,
            None if deferred is None else deferred[:2],
            None if addr is None else (2 if type(addr) is tuple else 1),
            payload is None, undo is None,
        )
        acc = self._shapes.get(key)
        if acc is None:
            acc = self._shapes[key] = ([], [], [], [], [], [], [])
        acc[0].append(lane)
        acc[1].append(int(self.round_base[lane]) + opidx)
        if addr is not None:
            acc[2].append(addr)
        if payload is not None:
            acc[3].append(payload)
        if undo is not None:
            acc[4].append(undo)
        if deferred is not None:
            acc[5].append(deferred[2])

    def record(
        self,
        kind: int,
        lanes: np.ndarray,
        branch: Any,
        *,
        rounds: Optional[np.ndarray] = None,
        amount: int = 0,
        addr: Optional[np.ndarray] = None,
        width: int = 8,
        deferred: Optional[Tuple[str, str, np.ndarray]] = None,
        table: Optional[str] = None,
        payload: Optional[np.ndarray] = None,
    ) -> None:
        """One op on ``lanes`` (an array), ``branch`` a scalar tag or a
        per-lane array. Each lane's event lands on its next round; an
        event at given ``rounds`` (the lock scheduler's gate passes and
        releases) leaves the op counters alone."""
        if len(lanes) == 0:
            return
        if rounds is None:
            count = self.op_count[lanes]
            rounds = self.round_base[lanes] + count
            count += 1
            self.op_count[lanes] = count
        else:
            self._placed += len(lanes)
        undo = None
        if kind == op_ir.WRITE and self.undo_capture is not None:
            undo = self.undo_capture[lanes]
        per_lane = isinstance(branch, np.ndarray)
        key = (
            kind, _PER_LANE if per_lane else branch, amount, width, table,
            None if deferred is None else deferred[:2],
            None if addr is None else addr.ndim,
            payload is None, undo is None,
        )
        acc = self._shapes.get(key)
        if acc is None:
            acc = self._shapes[key] = ([], [], [], [], [], [], [])
        acc[6].append((
            lanes, rounds, branch if per_lane else None, addr, payload, undo,
            None if deferred is None else deferred[2],
        ))

    def event_count(self) -> int:
        """Recorded (thread, op) events: a thread's counted ops are
        distinct events (one per round), the placed ones come on top."""
        return int(self.op_count.sum()) + self._placed

    def _folded(self, plain: bool) -> List[Tuple[Any, ...]]:
        """Per op shape, its :class:`Step` fields: each per-event field
        as a Python list (``plain``) or an array, its array chunks
        first, then its scalars. Arrays replace the shape's chunks and
        scalars as its one chunk, so a launch holds its trace once
        while the replay builds the event matrix from it."""
        join = _joined_list if plain else _joined_array
        i64 = np.int64
        records: List[Tuple[Any, ...]] = []
        for key, acc in self._shapes.items():
            (
                kind, branch, amount, width, table, target,
                addr_ndim, no_payload, no_undo,
            ) = key
            lanes, rounds, addr, payload, undo, rows, chunks = acc
            if not plain and len(chunks) == 1 and not lanes:
                # One array chunk is the shape's Step as it stands.
                lanes, rounds, lane_branch, addr, payload, undo, rows = chunks[0]
                if branch is _PER_LANE:
                    branch = lane_branch
            elif chunks or not plain:
                # Per field, its chunks: (lanes, rounds, branch, addr, ...).
                cols = tuple(zip(*chunks)) if chunks else ((),) * 7
                if branch is _PER_LANE:
                    branch = join(cols[2], [], i64)
                lanes, rounds = join(cols[0], lanes, i64), join(cols[1], rounds, i64)
                addr = join(cols[3], addr, i64) if addr_ndim else None
                payload = None if no_payload else join(cols[4], payload, i64)
                undo = None if no_undo else join(cols[5], undo, bool)
                rows = None if target is None else join(cols[6], rows, i64)
                if not plain:
                    self._shapes[key] = ([], [], [], [], [], [], [(
                        lanes, rounds, branch if key[1] is _PER_LANE else None,
                        addr, payload, undo, rows,
                    )])
            records.append((
                kind, branch, amount, width, table, target, lanes, rounds,
                addr if addr_ndim else None, None if no_payload else payload,
                None if no_undo else undo, None if target is None else rows,
            ))
        return records

    def flush(self) -> List[Step]:
        """The store as one :class:`Step` of arrays per op shape (the
        event matrix's input)."""
        return [Step(*fields) for fields in self._folded(plain=False)]

    def plain_records(self) -> List[Tuple[Any, ...]]:
        """The store as Python values (a narrow replay's input): per op
        shape, its :class:`Step` fields as a tuple of lists (a probe's
        address a ``(lo, hi)`` pair), without building an array."""
        return self._folded(plain=True)


def _joined_array(chunks: Sequence[Any], scalars: list, dtype: Any) -> np.ndarray:
    parts = list(chunks)
    if scalars:
        parts.append(np.asarray(scalars, dtype=dtype))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _joined_list(chunks: Sequence[np.ndarray], scalars: list, dtype: Any) -> list:
    out: list = []
    for chunk in chunks:
        out += chunk.tolist()
    return out + scalars if scalars else out


def _padded(lists: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lane int lists as a zero-padded ``(n, max(width, 1))``
    matrix plus the per-lane lengths."""
    n = len(lists)
    lens = np.fromiter(map(len, lists), np.int64, n)
    width = max(int(lens.max()), 1) if n else 1
    mat = np.zeros((n, width), dtype=np.int64)
    # Row-major fill: the mask visits lane 0's slots, then lane 1's...
    mat[np.arange(width) < lens[:, None]] = np.fromiter(
        chain.from_iterable(lists), np.int64, int(lens.sum())
    )
    return mat, lens


def _python_keys(keys: Any, idx: Any) -> List[Any]:
    """The probe keys of lanes ``idx`` as Python values: ``keys`` is one
    column, or a tuple of columns zipped into composite keys."""
    if isinstance(keys, tuple):
        return list(zip(*(_python_keys(column, idx) for column in keys)))
    return keys[idx].tolist()


class KernelContext:
    """What a kernel sees the same way at any width: ``n`` lanes, which
    of them are ``active``, the ops, the parameters, ``finish`` and the
    width-agnostic helpers (``where``, ``zeros``, ``pick``, ``most``,
    ``first_seen``). :class:`WaveContext` answers with columns,
    :class:`~repro.core.backends.lane.LaneContext` with Python scalars;
    a kernel that computes with operators and these helpers runs
    unchanged on both."""

    n: int
    active: Any

    def finish(self, *columns: Any) -> None:
        """All still-active lanes return."""
        self.finish_where(self.active, *columns)  # type: ignore[attr-defined]


class WaveContext(KernelContext):
    """The vector kernel's view of one type's sub-wave.

    ``lanes`` maps the kernel's local lane index to the launch-global
    thread index. All ops apply to the currently *active* local lanes,
    optionally narrowed by a ``mask``; returned arrays are full local
    length with unspecified values at inactive lanes.

    The kernel boundary is columns in both directions -- a body holds
    NumPy arrays of local length and never loops per lane to marshal:

    * parameters arrive as typed columns (:meth:`param_i64`,
      :meth:`param_f64`, :meth:`param_bool`, :meth:`param_obj`;
      :meth:`param_lists` for a tuple-valued parameter);
    * a probe key is one column, or a tuple of columns for a composite
      key; :meth:`index_probe_multi` returns a zero-padded row matrix
      plus per-lane match counts;
    * :meth:`insert` takes one entry per table column -- a per-lane
      array, or a scalar shared by every lane;
    * :meth:`finish` / :meth:`finish_where` take the result as columns:
      none (the transaction returns ``None``), one (a scalar per lane)
      or several (a tuple per lane). Columns convert with
      ``ndarray.tolist()``, the same ``.item()`` conversion
      :meth:`ColumnTable.read` applies, so a result has the Python type
      the generator body returns when the column has the dtype of the
      value the generator computed.
    """

    def __init__(
        self,
        recorder: TraceRecorder,
        store: WaveStore,
        lanes: np.ndarray,
        type_id: int,
        type_name: str,
        params: Sequence[Tuple[Any, ...]],
        *,
        record_abort_ops: bool = True,
        capture_undo: bool = False,
    ) -> None:
        self.recorder = recorder
        self.store = store
        self.lanes = lanes
        self.type_id = type_id
        self.type_name = type_name
        self.n = len(params)
        self._params = list(zip(*params))
        self.active = np.ones(self.n, dtype=bool)
        self.committed = np.ones(self.n, dtype=bool)
        #: Per-lane abort reasons and results, as object columns.
        self.abort_reason = np.full(self.n, "", dtype=object)
        self.results = np.full(self.n, None, dtype=object)
        self.record_abort_ops = record_abort_ops
        #: Per-local-lane undo logs when the sub-wave journals
        #: before-images, as the interpreter does for threads whose
        #: task sets capture_undo (a property of the transaction type,
        #: hence of the whole sub-wave), else None. The vectorized
        #: capture is one bulk gather per write step instead of a
        #: per-row append; entries have the interpreter's format (rows
        #: staged by a same-launch insert are recorded under their
        #: encoded handle and remapped after the replay materialises
        #: them).
        self.undo: Optional[List[List[Tuple[Any, ...]]]] = (
            [[] for _ in range(self.n)] if capture_undo else None
        )

    # -- parameters ------------------------------------------------------
    def param_i64(self, i: int) -> np.ndarray:
        return np.array(self._params[i], dtype=np.int64)

    def param_f64(self, i: int) -> np.ndarray:
        return np.array(self._params[i], dtype=np.float64)

    def param_bool(self, i: int) -> np.ndarray:
        return np.array(self._params[i], dtype=bool)

    def param_obj(self, i: int) -> np.ndarray:
        return np.fromiter(self._params[i], dtype=object, count=self.n)

    def param_lists(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """A tuple-of-ints parameter as a zero-padded matrix (one row
        per lane) plus the per-lane tuple lengths."""
        return _padded(self._params[i])

    # -- width-agnostic helpers -------------------------------------------
    def where(self, cond: Any, a: Any, b: Any) -> np.ndarray:
        """``a`` at the lanes where ``cond`` holds, else ``b``."""
        return np.where(cond, a, b)

    def zeros(self, dtype: Any = np.float64) -> np.ndarray:
        """A zero per lane: an accumulator to add to."""
        return np.zeros(self.n, dtype)

    def pick(self, matrix: np.ndarray, k: Any) -> np.ndarray:
        """Entry ``k[i]`` of lane ``i``'s row (a parameter list or a
        multi-probe's matches, 0 past a lane's own length); a scalar
        ``k`` picks the same slot in every row."""
        return matrix[np.arange(self.n), k]

    def most(self, values: np.ndarray) -> int:
        """The largest of ``values`` over the active lanes (0 when no
        lane is active): the trip count of a masked slot sweep."""
        active = self.active
        return int(values[active].max()) if active.any() else 0

    def first_seen(self, seen: set, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per-lane dedup: True where an active lane in ``mask`` meets
        its value for the first time (``seen`` is the kernel's own
        set, one per kernel run)."""
        fresh = np.zeros(self.n, dtype=bool)
        idx = np.flatnonzero(mask & self.active).tolist()
        for i, value in zip(idx, values[idx].tolist()):
            if (i, value) not in seen:
                seen.add((i, value))
                fresh[i] = True
        return fresh

    # -- mask plumbing ---------------------------------------------------
    def _select(self, mask: Optional[np.ndarray]) -> Any:
        """The active lanes under ``mask`` as an index NumPy applies the
        same way either way: ``slice(None)`` (a view, no copy) when that
        is every lane of the sub-wave, else their local indices,
        ascending."""
        m = self.active if mask is None else self.active & mask
        return _EVERY_LANE if np.count_nonzero(m) == self.n else m.nonzero()[0]

    def _hand(self, staged: np.ndarray) -> None:
        """Note the lanes an op answered with a staged row's handle."""
        if self.store.pending_inserts and staged.any():
            self.store.handed.update(self.lanes[staged].tolist())

    def _record(self, kind: int, idx: Any, **kw: Any) -> None:
        """Record one op on the lanes :meth:`_select` picked."""
        self.recorder.record(kind, self.lanes[idx], self.type_id, **kw)

    # -- ops -------------------------------------------------------------
    def set_branch(self) -> None:
        """The registry wrapper's leading ``SetBranch(type_id)`` op."""
        self._record(op_ir.SET_BRANCH, self._select(None))

    def index_probe(
        self, index: str, keys: Any, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Probe a unique index or static map; -1 encodes a miss."""
        idx = self._select(mask)
        keys_m = _python_keys(keys, idx)
        out = np.full(self.n, -1, dtype=np.int64)
        if not keys_m:
            return out
        out[idx] = self.store.probe_unique(index, keys_m)
        self._hand(out >= HANDLE_BASE)
        self._record(
            op_ir.INDEX_PROBE,
            idx,
            addr=self.store.probe_cost_addresses(index, keys_m),
        )
        return out

    def index_probe_multi(
        self, index: str, keys: Any, mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Probe a multi index; returns ``(rows, counts)``.

        ``rows[i, :counts[i]]`` are lane ``i``'s matching row ids in
        index order, zero-padded to the widest lane (at least one
        column); lanes outside the mask count zero matches.
        """
        idx = self._select(mask)
        keys_m = _python_keys(keys, idx)
        if not keys_m:
            return _padded([()] * self.n)
        rows, counts = _padded(self.store.probe_multi(index, keys_m))
        self._record(
            op_ir.INDEX_PROBE,
            idx,
            addr=self.store.probe_cost_addresses(index, keys_m),
        )
        rows_n = np.zeros((self.n, rows.shape[1]), dtype=np.int64)
        counts_n = np.zeros(self.n, dtype=np.int64)
        rows_n[idx] = rows
        counts_n[idx] = counts
        self._hand(rows_n.max(axis=1) >= HANDLE_BASE)
        return rows_n, counts_n

    def read(
        self,
        table: str,
        column: str,
        rows: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        idx = self._select(mask)
        rows_m = rows[idx]
        if len(rows_m) == 0:
            return np.zeros(self.n)
        values = self.store.gather(table, column, rows_m)
        if values.dtype == object:
            out = np.empty(self.n, dtype=object)
        else:
            out = np.zeros(self.n, dtype=values.dtype)
        out[idx] = values
        addr, width, deferred = self.store.cells(table, column, rows_m)
        self._record(op_ir.READ, idx, addr=addr, width=width, deferred=deferred)
        return out

    def write(
        self,
        table: str,
        column: str,
        rows: np.ndarray,
        values: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """The conflict-masked scatter: only surviving lanes write.

        ``values`` is a per-lane array, or a scalar every lane writes.
        Rows staged by a same-launch insert (encoded handles) are
        staged as handle writes instead of scattered -- the replay
        applies them once the insert materialises.
        """
        idx = self._select(mask)
        rows_m = np.asarray(rows)[idx]
        if len(rows_m) == 0:
            return
        values_m = np.asarray(values)
        values_m = values_m[idx] if values_m.ndim else np.full(len(rows_m), values_m)
        if self.undo is not None:
            # Bulk before-image capture: one overlay-aware gather for
            # the whole step, then per-lane appends in lane order --
            # the entries (and their order) match the interpreter's
            # per-row ``t.undo.append`` exactly. ``.tolist()`` converts
            # numpy scalars at the edge, as ColumnTable.write does.
            olds = self.store.gather(table, column, rows_m).tolist()
            lane_ids = np.arange(self.n)[idx].tolist()
            for i, row, old in zip(lane_ids, rows_m.tolist(), olds):
                self.undo[i].append((table, column, row, old))
        # A handle row can only name one of this launch's staged inserts.
        handles = rows_m >= HANDLE_BASE if self.store.pending_inserts else None
        if handles is not None and handles.any():
            if table not in self.store.mutating_tables:
                # A handle can only come from this launch's inserts,
                # which all live in mutating tables -- anything else is
                # a kernel-authoring bug.
                raise ValueError(
                    f"write of staged rows into non-mutating table "
                    f"{table!r}"
                )
            for j in np.flatnonzero(handles):
                self.store.stage_handle_write(
                    table, column,
                    int(rows_m[j]) - HANDLE_BASE, values_m[j],
                )
            real = ~handles
            if real.any():
                self.store.adapter.scatter_bulk(
                    table, column, rows_m[real], values_m[real]
                )
        else:
            self.store.adapter.scatter_bulk(table, column, rows_m, values_m)
        addr, width, deferred = self.store.cells(table, column, rows_m)
        self._record(op_ir.WRITE, idx, addr=addr, width=width, deferred=deferred)

    def compute(self, amount: int, mask: Optional[np.ndarray] = None) -> None:
        self._record(op_ir.COMPUTE, self._select(mask), amount=amount)

    def sfu(self, amount: int, mask: Optional[np.ndarray] = None) -> None:
        self._record(op_ir.SFU_COMPUTE, self._select(mask), amount=amount)

    def insert(
        self,
        table: str,
        columns: Sequence[Any],
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stage one insert per masked lane; returns encoded handles.

        ``columns`` has one entry per table column, in schema order: a
        per-lane array, or a scalar every lane inserts.
        """
        idx = self._select(mask)
        lanes = np.arange(self.n)[idx].tolist()
        if not lanes:
            return np.full(self.n, -1, dtype=np.int64)
        if table not in self.store.mutating_tables:
            raise _undeclared_insert(self.type_name, table)
        rows = list(zip(*(
            c[idx].tolist() if isinstance(c, np.ndarray)
            else repeat(c, len(lanes))
            for c in columns
        )))
        handles = self.store.stage_inserts(table, rows)
        if self.undo is not None:
            # Interpreter entry: (INSERT_SENTINEL, table, row, None)
            # with the provisional row id; recorded here under the
            # encoded handle and remapped once the replay materialises
            # the insert.
            for i, handle in zip(lanes, handles.tolist()):
                self.undo[i].append(
                    (tx_logging.INSERT_SENTINEL, table, handle, None)
                )
        out = np.full(self.n, -1, dtype=np.int64)
        out[idx] = handles
        self._hand(out >= HANDLE_BASE)
        self._record(op_ir.INSERT_ROW, idx, table=table, payload=handles)
        return out

    def delete(
        self,
        table: str,
        rows: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        idx = self._select(mask)
        rows_m = np.asarray(rows)[idx].astype(np.int64)
        if len(rows_m) == 0:
            return
        for i, row_enc in zip(np.arange(self.n)[idx].tolist(), rows_m.tolist()):
            self.store.stage_delete(table, row_enc)
            if self.undo is not None:
                self.undo[i].append(
                    (tx_logging.DELETE_SENTINEL, table, row_enc, None)
                )
        self._record(op_ir.DELETE_ROW, idx, table=table, payload=rows_m)

    # -- control flow ----------------------------------------------------
    def abort_where(self, cond: np.ndarray, reason: str) -> None:
        """Abort the active lanes where ``cond`` holds."""
        m = self.active & cond
        if not m.any():
            return
        if self.record_abort_ops:
            self._record(op_ir.ABORT, np.flatnonzero(m))
        self.committed &= ~m
        self.abort_reason[m] = reason
        self.active &= ~m

    def finish_where(self, mask: np.ndarray, *columns: np.ndarray) -> None:
        """Lanes in ``mask`` return their entries of the result
        ``columns`` and leave the kernel."""
        m = self.active & mask
        if not m.any():
            return
        if columns:
            values = [c.tolist() for c in columns]
            self.results[m] = np.fromiter(
                values[0] if len(values) == 1 else zip(*values),
                dtype=object,
                count=self.n,
            )[m]
        self.active &= ~m

    def close(self) -> None:
        """Kernel epilogue sanity check: every lane ended or aborted."""
        if self.active.any():  # pragma: no cover - kernel-author error
            raise RuntimeError(
                "vector kernel left lanes neither finished nor aborted"
            )


#: The widest same-type sub-wave that runs lane by lane: up to this many
#: lanes, ``run_lane`` per lane costs the host no more than one
#: ``WaveContext`` on any built-in workload; at six, SmallBank and TPC-B
#: are cheaper as columns (``scripts/lane_cost.py``; docs/ARCHITECTURE.md,
#: "What a lane costs the host").
NARROW_WIDTH = 5

def _undeclared_insert(type_name: str, table: str) -> ValueError:
    """The refusal of an insert into a table the type did not declare."""
    return ValueError(
        f"transaction type {type_name!r} inserts into table {table!r}, "
        "which its vector_inserts does not declare"
    )


def _write1(
    record: Any, store: WaveStore, lane: int, type_id: int,
    table: str, column: str, row: int, value: Any,
) -> None:
    """One lane's WRITE: into the store (or the staged row it names),
    then onto the trace."""
    if row < HANDLE_BASE:
        store.adapter.write(table, column, row, value)
    elif table in store.mutating_tables:
        store.stage_handle_write(table, column, row - HANDLE_BASE, value)
    else:
        raise ValueError(
            f"write of staged rows into non-mutating table {table!r}"
        )
    addr, width, deferred = store.cells(table, column, row)
    record(op_ir.WRITE, lane, type_id, addr=addr, width=width, deferred=deferred)


def run_lane(
    recorder: TraceRecorder,
    store: WaveStore,
    lane: int,
    type_id: int,
    txn_type: Any,
    params: Tuple[Any, ...],
    *,
    record_abort_ops: bool,
    capture_undo: bool,
    inline_rollback: bool = False,
) -> Tuple[bool, str, Any, Optional[List[Tuple[Any, ...]]]]:
    """Run one transaction as a one-lane sub-wave.

    Drives the type's op stream (``txn_type.body(*params)``), answers
    each op from ``store`` as the interpreter would, and records it on
    thread ``lane`` through :meth:`TraceRecorder.record_scalar`: the
    trace, store effects and undo log a one-lane :class:`WaveContext`
    would produce, without a column per op. Returns ``(committed, abort
    reason, result, undo log or None)``.

    ``inline_rollback`` is the PART wrapper's undo logging
    (:meth:`~repro.core.strategies.part.PartExecutor.partition_task`):
    each WRITE is preceded by a READ of its before-image, and an abort
    writes those back in reverse instead of issuing an ABORT op and
    cancels its staged inserts and deletes (:meth:`WaveStore.cancel`),
    so the lane's later transactions never see them.
    """
    record = recorder.record_scalar
    record(op_ir.SET_BRANCH, lane, type_id)
    logged = capture_undo or inline_rollback
    undo: Optional[List[Tuple[Any, ...]]] = [] if logged else None
    db = store.db
    mutating = store.mutating_tables

    stream = txn_type.body(*params)
    reply: Any = None
    while True:
        try:
            op = stream.send(reply)
        except StopIteration as stop:
            return True, "", stop.value, undo
        kind = op.kind
        reply = None
        if kind == op_ir.READ:
            table, column, row = op.table, op.column, op.row
            reply = store.gather1(table, column, row)
            addr, width, deferred = store.cells(table, column, row)
            record(kind, lane, type_id, addr=addr, width=width, deferred=deferred)
        elif kind == op_ir.WRITE:
            table, column, row = op.table, op.column, op.row
            if undo is not None:
                undo.append((table, column, row, store.gather1(table, column, row)))
                if inline_rollback:  # the PART wrapper reads it as an op
                    addr, width, deferred = store.cells(table, column, row)
                    record(op_ir.READ, lane, type_id, addr=addr, width=width,
                           deferred=deferred)
            _write1(record, store, lane, type_id, table, column, row, op.value)
        elif kind == op_ir.INDEX_PROBE:
            index, key = op.index, op.key
            if index in db.static_maps or db.index(index).unique:
                reply = store.probe_unique1(index, key)
                staged = reply >= HANDLE_BASE
            else:
                reply = store.probe_multi1(index, key)
                # Staged rows sort last: above every real row id.
                staged = bool(reply) and reply[-1] >= HANDLE_BASE
            if staged:
                store.handed.add(lane)
            base = int(store.probe_cost_base1(index, key))
            record(kind, lane, type_id, addr=(base, base + 8))
        elif kind == op_ir.COMPUTE or kind == op_ir.SFU_COMPUTE:
            record(kind, lane, type_id, amount=op.amount)
        elif kind == op_ir.INSERT_ROW:
            if op.table not in mutating:
                raise _undeclared_insert(txn_type.name, op.table)
            reply = int(store.stage_inserts(op.table, [tuple(op.values)])[0])
            store.handed.add(lane)
            if undo is not None:
                undo.append((tx_logging.INSERT_SENTINEL, op.table, reply, None))
            record(kind, lane, type_id, table=op.table, payload=reply)
        elif kind == op_ir.DELETE_ROW:
            store.stage_delete(op.table, op.row)
            if undo is not None:
                undo.append((tx_logging.DELETE_SENTINEL, op.table, op.row, None))
            record(kind, lane, type_id, table=op.table, payload=op.row)
        elif kind == op_ir.ABORT:
            if record_abort_ops:
                record(kind, lane, type_id)
            if inline_rollback:
                for entry in reversed(undo):
                    if entry[0] in tx_logging.SENTINELS:
                        store.cancel(recorder.last_event(lane), entry)
                    else:
                        _write1(record, store, lane, type_id, *entry)
            return False, op.reason, None, undo
        else:
            name = op_ir.KIND_NAMES.get(kind, kind)
            raise ValueError(f"op kind {name} runs only on the interpreter")


def run_sub_wave(
    recorder: TraceRecorder,
    store: WaveStore,
    lanes: np.ndarray,
    type_id: int,
    txn_type: Any,
    params: Sequence[Tuple[Any, ...]],
    out: Tuple[np.ndarray, np.ndarray, np.ndarray, List[Any]],
    *,
    record_abort_ops: bool,
    capture_undo: bool,
    inline_rollback: bool = False,
) -> None:
    """Run one same-type sub-wave: the transactions whose parameter
    tuples are ``params`` on the launch threads ``lanes`` (ascending).

    The one owner of the width fork: at most :data:`NARROW_WIDTH` lanes
    run through :func:`run_lane`, one call per lane in ascending order,
    and so does a sub-wave of any width whose type has no vector body
    or rolls back inline (``inline_rollback``, see :func:`run_lane`); a
    wider sub-wave runs the type's vector body on one
    :class:`WaveContext`. Either way each thread's committed flag, abort
    reason, result and undo log (None unless ``capture_undo`` or
    ``inline_rollback``) land at its index in ``out``, the caller's
    launch-length columns ``(committed, abort_reason, results, undo)``.
    """
    committed, abort_reason, results, undo = out
    lane_list = lanes.tolist()
    lane_by_lane = inline_rollback or txn_type.vector_body is None
    if lane_by_lane or len(lane_list) <= NARROW_WIDTH:
        for t, p in zip(lane_list, params):
            committed[t], abort_reason[t], results[t], undo[t] = run_lane(
                recorder, store, t, type_id, txn_type, p,
                record_abort_ops=record_abort_ops, capture_undo=capture_undo,
                inline_rollback=inline_rollback,
            )
        return
    ctx = WaveContext(
        recorder, store, lanes, type_id, txn_type.name, params,
        record_abort_ops=record_abort_ops, capture_undo=capture_undo,
    )
    ctx.set_branch()
    txn_type.vector_body(ctx)
    ctx.close()
    committed[lanes] = ctx.committed
    abort_reason[lanes] = ctx.abort_reason
    results[lanes] = ctx.results
    if ctx.undo is not None:
        for t, log in zip(lane_list, ctx.undo):
            undo[t] = log
