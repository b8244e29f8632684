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
  cross-shard leader, the PART wrapper, ``run_lane``) and which hands
  the kernel Python scalars.

A kernel computes with operators and the context's width-agnostic
helpers (``where``, ``zeros``, ``pick``, ``most``, ``first_seen``),
never with NumPy functions: the same source then computes on columns
in a wave and on scalars in a lane. An op call that is not the operand
of a ``yield`` still executes in a wave but never reaches the lane
stream. A masked-off op costs a lane
nothing -- no op, no round: what a generator body's ``if`` did.
"""

from __future__ import annotations

from functools import wraps
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends.wave import KernelContext
from repro.gpu import ops as op_ir

_Op = Optional[op_ir.Op]


class LaneContext(KernelContext):
    """``WaveContext``'s kernel surface, name for name, one lane wide.

    Everything a kernel holds here is a Python value: a parameter is an
    ``int``, ``float``, ``bool`` or object, a list parameter a list plus
    its length, ``active`` a ``bool``, and an op's reply is the
    interpreter's answer as is -- a multi-index probe's is a list of
    rows plus its count. An op method returns the micro-op to yield, or
    ``None`` when the lane is masked off, finished or not aborting; the
    kernel then gets back the value ``WaveContext`` leaves at such a
    lane. So stored values, log entries and results have the types a
    hand-written generator body produces, and no op pays for a column.
    """

    n = 1

    def __init__(self, params: Tuple[Any, ...]) -> None:
        self._params = params
        self.active = True
        self.result: Any = None
        #: The reply to the op being called when the lane issues none.
        self._off: Any = None
        #: The op being called is a multi-index probe (its answer is
        #: handed back as ``(rows, count)``).
        self._multi = False

    def _issues(self, off: Any, mask: Any) -> bool:
        """Arm the masked-off reply of the op being called; is the lane
        on?"""
        self._off = off
        return self.active and (mask is None or mask)

    # -- parameters ------------------------------------------------------
    def param_i64(self, i: int) -> int:
        return int(self._params[i])

    def param_f64(self, i: int) -> float:
        return float(self._params[i])

    def param_bool(self, i: int) -> bool:
        return bool(self._params[i])

    def param_obj(self, i: int) -> Any:
        return self._params[i]

    def param_lists(self, i: int) -> Tuple[List[int], int]:
        values = list(map(int, self._params[i]))
        return values, len(values)

    # -- width-agnostic helpers -------------------------------------------
    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return a if cond else b

    def zeros(self, dtype: Any = np.float64) -> Any:
        return np.dtype(dtype).type(0).item()

    def pick(self, matrix: Sequence[Any], k: int) -> Any:
        return matrix[k] if 0 <= k < len(matrix) else 0

    def most(self, values: Any) -> Any:
        return values if self.active else 0

    def first_seen(self, seen: set, values: Any, mask: Any) -> bool:
        if self.active and mask and values not in seen:
            seen.add(values)
            return True
        return False

    # -- ops -------------------------------------------------------------
    def index_probe(self, index: str, keys: Any, mask: Any = None) -> _Op:
        return op_ir.IndexProbe(index, keys) if self._issues(-1, mask) else None

    def index_probe_multi(self, index: str, keys: Any, mask: Any = None) -> _Op:
        if not self._issues(([], 0), mask):
            return None
        self._multi = True
        return op_ir.IndexProbe(index, keys)

    def read(self, table: str, column: str, rows: Any, mask: Any = None) -> _Op:
        on = self._issues(0.0, mask)
        return op_ir.Read(table, column, rows) if on else None

    def write(
        self, table: str, column: str, rows: Any, values: Any, mask: Any = None
    ) -> _Op:
        on = self._issues(None, mask)
        return op_ir.Write(table, column, rows, values) if on else None

    def compute(self, amount: int, mask: Any = None) -> _Op:
        return op_ir.Compute(amount) if self._issues(None, mask) else None

    def sfu(self, amount: int, mask: Any = None) -> _Op:
        return op_ir.SfuCompute(amount) if self._issues(None, mask) else None

    def insert(self, table: str, columns: Sequence[Any], mask: Any = None) -> _Op:
        on = self._issues(-1, mask)
        return op_ir.InsertRow(table, tuple(columns)) if on else None

    def delete(self, table: str, rows: Any, mask: Any = None) -> _Op:
        return op_ir.DeleteRow(table, rows) if self._issues(None, mask) else None

    # -- control flow ----------------------------------------------------
    def abort_where(self, cond: Any, reason: str) -> _Op:
        if not self._issues(None, cond):
            return None
        self.active = False
        return op_ir.Abort(reason)

    def finish_where(self, mask: Any, *columns: Any) -> None:
        if self.active and mask:
            if columns:
                self.result = columns[0] if len(columns) == 1 else columns
            self.active = False


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
                if op is None:
                    reply = ctx._off
                    continue
                reply = yield op
                if ctx._multi:
                    ctx._multi = False
                    reply = (list(reply), len(reply))
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
