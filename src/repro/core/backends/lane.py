"""One stored procedure, two drivers: the single-source kernel form.

A *kernel* is a generator function over the op surface of
:class:`~repro.core.backends.wave.WaveContext` in which every op call
is yielded and answered through the ``yield`` (``row = yield
ctx.index_probe(...)``). How many lanes run a case is the launch's
business, not the procedure's (Sections 3.1-3.2), so a kernel has two
drivers, and ``TransactionType.from_kernel`` registers both:

* :func:`wave_pump` runs it over a whole sub-wave on a ``WaveContext``:
  each op executes eagerly as one column operation and its result
  column goes straight back into the kernel;
* :func:`lane_stream` runs it over one transaction on a
  :class:`LaneContext`, whose op methods *build* the micro-op for
  whoever interprets the stream (the SIMT engine, ``CpuEngine``, the
  cross-shard leader, the PART wrapper).

An op call that is not the operand of a ``yield`` still executes in a
wave but never reaches the lane stream. A masked-off op costs a lane
nothing -- no op, no round: what a generator body's ``if`` did.
"""

from __future__ import annotations

from functools import wraps
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends.wave import KernelContext, _padded
from repro.gpu import ops as op_ir

_Mask = Optional[np.ndarray]
_Op = Optional[op_ir.Op]


def _python_key0(keys: Any) -> Any:
    """The lane's probe key as a Python value: one column, or a tuple
    of columns for a composite key."""
    if isinstance(keys, tuple):
        return tuple(column.item(0) for column in keys)
    return keys.item(0)


def _python_row0(columns: Sequence[Any]) -> Tuple[Any, ...]:
    """The lane's row of insert ``columns`` as Python values."""
    return tuple(c.item(0) if isinstance(c, np.ndarray) else c for c in columns)


# How the stream replies to an op method: the interpreter's scalar
# answer lifted into one-lane columns -- with no answer (the op was
# masked off), the value ``WaveContext`` leaves at such a lane.
def _nothing(_answer: Any = None) -> None:
    return None


def _row(row: int = -1) -> np.ndarray:
    return np.array((row,), dtype=np.int64)


def _matches(rows: Sequence[int] = ()) -> Tuple[np.ndarray, np.ndarray]:
    return _padded([rows])


def _value(value: Any = 0.0) -> np.ndarray:
    numeric = isinstance(value, (int, float))
    return np.array((value,), dtype=None if numeric else object)


class LaneContext(KernelContext):
    """``WaveContext``'s op surface, name for name, one lane wide.

    An op method returns the micro-op to yield, or ``None`` when the
    lane is masked off, finished or not aborting. Values cross the op
    edge as Python scalars (``item``, the conversion ``tolist``
    applies), so stored values, log entries and results have the types
    a hand-written generator body produces.
    """

    n = 1

    def __init__(self, params: Tuple[Any, ...]) -> None:
        self._params = [(p,) for p in params]
        self.active = np.ones(1, dtype=bool)
        self.result: Any = None
        self._lift: Callable[..., Any] = _nothing

    def _issues(self, lift: Callable[..., Any], mask: _Mask) -> bool:
        """Arm the reply to the op method being called; is the lane on?"""
        self._lift = lift
        return bool(self.active[0] and (mask is None or mask[0]))

    # -- ops -------------------------------------------------------------
    def index_probe(self, index: str, keys: Any, mask: _Mask = None) -> _Op:
        on = self._issues(_row, mask)
        return op_ir.IndexProbe(index, _python_key0(keys)) if on else None

    def index_probe_multi(self, index: str, keys: Any, mask: _Mask = None) -> _Op:
        on = self._issues(_matches, mask)
        return op_ir.IndexProbe(index, _python_key0(keys)) if on else None

    def read(
        self, table: str, column: str, rows: np.ndarray, mask: _Mask = None
    ) -> _Op:
        on = self._issues(_value, mask)
        return op_ir.Read(table, column, int(rows[0])) if on else None

    def write(
        self, table: str, column: str, rows: np.ndarray, values: np.ndarray,
        mask: _Mask = None,
    ) -> _Op:
        if not self._issues(_nothing, mask):
            return None
        return op_ir.Write(table, column, int(rows[0]), np.asarray(values).item(0))

    def compute(self, amount: int, mask: _Mask = None) -> _Op:
        return op_ir.Compute(amount) if self._issues(_nothing, mask) else None

    def sfu(self, amount: int, mask: _Mask = None) -> _Op:
        return op_ir.SfuCompute(amount) if self._issues(_nothing, mask) else None

    def insert(self, table: str, columns: Sequence[Any], mask: _Mask = None) -> _Op:
        on = self._issues(_row, mask)
        return op_ir.InsertRow(table, _python_row0(columns)) if on else None

    def delete(self, table: str, rows: np.ndarray, mask: _Mask = None) -> _Op:
        on = self._issues(_nothing, mask)
        return op_ir.DeleteRow(table, int(rows[0])) if on else None

    # -- control flow ----------------------------------------------------
    def abort_where(self, cond: np.ndarray, reason: str) -> _Op:
        if not self._issues(_nothing, cond):
            return None
        self.active[0] = False
        return op_ir.Abort(reason)

    def finish_where(self, mask: np.ndarray, *columns: np.ndarray) -> None:
        if self.active[0] and mask[0]:
            if columns:
                values = tuple(c.item(0) for c in columns)
                self.result = values[0] if len(values) == 1 else values
            self.active[0] = False


def lane_stream(kernel: Callable[[Any], Any]) -> Callable[..., op_ir.OpStream]:
    """``kernel`` as a stored-procedure body: ``body(*params)`` is one
    transaction's op stream and returns the transaction's result."""

    @wraps(kernel)
    def body(*params: Any) -> op_ir.OpStream:
        ctx = LaneContext(params)
        steps = kernel(ctx)
        reply = None
        try:
            while True:
                op = steps.send(reply)
                reply = ctx._lift() if op is None else ctx._lift((yield op))
        except StopIteration:
            return ctx.result

    return body


def wave_pump(kernel: Callable[[Any], Any]) -> Callable[[Any], None]:
    """``kernel`` as a vector body: ``vector_body(ctx)`` runs it over a
    whole sub-wave, sending each op's result column straight back."""

    @wraps(kernel)
    def vector_body(ctx: Any) -> None:
        steps = kernel(ctx)
        reply = None
        try:
            while True:
                reply = steps.send(reply)
        except StopIteration:
            pass

    return vector_body
