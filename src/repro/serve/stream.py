"""Arrival streams: the open-ended input of the online ingest runtime.

An :class:`Arrival` is one not-yet-admitted transaction request --
``(type, params, submit_time)`` -- and an :class:`ArrivalStream` wraps
any iterable of them (or of raw triples) so the serve loop can ask
"when does the next request land?" without materialising the stream.
Streams may be unbounded generators; nothing here ever calls ``len``.

The stream pulls its source :data:`CHUNK` items at a time and keeps a
chunk as columns: its times are checked in one NumPy pass,
:meth:`ArrivalStream.pop_until` cuts with one ``searchsorted`` and
returns an :class:`ArrivalSlice` (columns; an ``Arrival`` is built only
when a row is read).

Submit times must be finite and nondecreasing: the transaction pool's
auto-increment ids double as Definition-1 timestamps, so admitting out
of arrival order would silently reorder commits (and a NaN, which
compares false both ways, would never come due). A bad time -- or an
item the source cannot yield or normalise -- raises at the call that
consumes the arrival before it, as a one-arrival lookahead would: every
arrival before that call is delivered first, wherever chunks end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import eq
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple
from typing import Union

import numpy as np

from repro.errors import ConfigError, ServeError, check_int

#: Raw forms accepted wherever an arrival stream is expected: an
#: ``Arrival``, a ``(type, params, submit_time)`` triple, or a
#: ``(type, params, submit_time, tenant)`` quadruple.
ArrivalLike = Union[
    "Arrival",
    Tuple[str, tuple, float],
    Tuple[str, tuple, float, str],
]

#: How many items the stream pulls from its source at a time.
CHUNK = 4096


@dataclass(frozen=True)
class Arrival:
    """One transaction request offered to the server."""

    type_name: str
    params: Tuple[Any, ...]
    submit_time: float
    #: Originating tenant ("" = untenanted). Admission control can
    #: enforce per-tenant quotas and the latency report splits by it.
    tenant: str = ""

    @classmethod
    def of(cls, item: ArrivalLike) -> "Arrival":
        return item if isinstance(item, Arrival) else cls(*_fields(item))


def _fields(item: ArrivalLike) -> Tuple[str, Tuple[Any, ...], float, str]:
    if isinstance(item, Arrival):
        return item.type_name, item.params, item.submit_time, item.tenant
    tenant = str(item[3]) if len(item) > 3 else ""
    return item[0], tuple(item[1]), float(item[2]), tenant


@dataclass(eq=False)
class ArrivalSlice(Sequence[Arrival]):
    """Consecutive arrivals as four parallel lists."""

    type_name: List[str] = field(default_factory=list)
    params: List[Tuple[Any, ...]] = field(default_factory=list)
    submit_time: List[float] = field(default_factory=list)
    tenant: List[str] = field(default_factory=list)

    @classmethod
    def of(cls, items: Iterable[ArrivalLike]) -> "ArrivalSlice":
        rows = list(map(_fields, items))
        return cls(*map(list, zip(*rows))) if rows else cls()

    def _columns(self) -> Tuple[list, ...]:
        return self.type_name, self.params, self.submit_time, self.tenant

    def __len__(self) -> int:
        return len(self.type_name)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ArrivalSlice(*(col[i] for col in self._columns()))
        return Arrival(*(col[i] for col in self._columns()))

    def __iter__(self) -> Iterator[Arrival]:
        return map(Arrival, *self._columns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def extend(self, other: "ArrivalSlice") -> None:
        for mine, theirs in zip(self._columns(), other._columns()):
            mine += theirs


def _columns(items: List[Any]) -> Tuple[ArrivalSlice, Optional[Exception]]:
    """``items`` as columns up to the first one that cannot be
    normalised, and what it raised. Plain triples go column by column."""
    if set(map(type, items)) == {tuple} and set(map(len, items)) == {3}:
        names, params, times = zip(*items)
        try:
            return ArrivalSlice(
                list(names), list(map(tuple, params)), list(map(float, times)),
                [""] * len(items),
            ), None
        except Exception:
            pass  # find the first bad item, row by row
    rows = []
    for item in items:
        try:
            rows.append(_fields(item))
        except Exception as exc:
            return ArrivalSlice.of(rows), exc
    return ArrivalSlice.of(rows), None


class ArrivalStream:
    """Chunked iterator over a (possibly unbounded) stream."""

    def __init__(self, items: Iterable[ArrivalLike]) -> None:
        self._iter: Iterator[ArrivalLike] = iter(items)
        self._chunk, self._times, self._pos = ArrivalSlice(), np.zeros(0), 0
        self._last_time = float("-inf")
        self._drained = False
        #: What the item after the chunk's last one raised, or why it is
        #: refused: raised when the cursor reaches it.
        self._error: Optional[Exception] = None
        self._settle()

    def _settle(self) -> None:
        """Refill at a chunk's end, or raise the error waiting there."""
        while self._pos == len(self._times):
            if self._error is not None:
                raise self._error
            if self._drained:
                return
            items: List[Any] = []
            try:
                items.extend(islice(self._iter, CHUNK))
            except Exception as exc:
                self._error = exc
            self._drained = len(items) < CHUNK
            chunk, error = _columns(items)
            self._error = error or self._error
            times = np.asarray(chunk.submit_time, dtype=np.float64)
            prev = np.concatenate(([self._last_time], times[:-1]))
            bad = np.flatnonzero(~(np.isfinite(times) & (times >= prev)))
            if len(bad):
                k = int(bad[0])
                self._error = ServeError(
                    "arrival times must be finite and never go backwards: "
                    f"{float(times[k])} after {float(prev[k])}"
                )
                chunk, times = chunk[:k], times[:k]
            self._chunk, self._times, self._pos = chunk, times, 0
            if len(times):
                self._last_time = float(times[-1])

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._times)

    def peek_time(self) -> float:
        """Submit time of the next arrival (+inf when exhausted)."""
        return float("inf") if self.exhausted else self._chunk.submit_time[self._pos]

    def pop(self) -> Arrival:
        """Consume and return the next arrival."""
        if self.exhausted:
            raise ServeError("arrival stream is exhausted")
        out = self._chunk[self._pos]
        self._pos += 1
        self._settle()
        return out

    def pop_until(self, clock: float, limit: Optional[int] = None) -> ArrivalSlice:
        """Consume every arrival with ``submit_time <= clock``, the
        oldest ``limit`` (an int >= 0) of them when a limit is given."""
        if limit is not None:
            limit = check_int("limit", limit, minimum=0)
        if clock != clock:
            raise ConfigError("pop_until needs a clock, not NaN")
        out = ArrivalSlice()
        while not self.exhausted and len(out) != limit:
            pos = self._pos
            end = pos + int(np.searchsorted(self._times[pos:], clock, "right"))
            if limit is not None:
                end = min(end, pos + limit - len(out))
            if end == pos:
                break
            out.extend(self._chunk[pos:end])
            self._pos = end
            self._settle()
        return out
