"""Arrival streams: the open-ended input of the online ingest runtime.

An :class:`Arrival` is one not-yet-admitted transaction request --
``(type, params, submit_time)`` -- and an :class:`ArrivalStream` wraps
any iterable of them (or of raw triples) behind a one-item lookahead,
so the serve loop can ask "when does the next request land?" without
materialising the stream. Streams may be unbounded generators; nothing
here ever calls ``len``.

Submit times must be finite and nondecreasing: the transaction pool's
auto-increment ids double as Definition-1 timestamps, so admitting out
of arrival order would silently reorder commits (and a NaN, which
compares false both ways, would never come due). The stream validates
this as it goes and raises :class:`~repro.errors.ServeError` on the
first violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Any, Iterable, Iterator, Optional, Tuple, Union

from repro.errors import ServeError

#: Raw forms accepted wherever an arrival stream is expected: an
#: ``Arrival``, a ``(type, params, submit_time)`` triple, or a
#: ``(type, params, submit_time, tenant)`` quadruple.
ArrivalLike = Union[
    "Arrival",
    Tuple[str, tuple, float],
    Tuple[str, tuple, float, str],
]


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
        if isinstance(item, Arrival):
            return item
        type_name, params, submit_time = item[0], item[1], item[2]
        tenant = str(item[3]) if len(item) > 3 else ""
        return cls(type_name, tuple(params), float(submit_time), tenant)


class ArrivalStream:
    """One-item-lookahead iterator over a (possibly unbounded) stream."""

    def __init__(self, items: Iterable[ArrivalLike]) -> None:
        self._iter: Iterator[ArrivalLike] = iter(items)
        self._head: Optional[Arrival] = None
        self._last_time = float("-inf")
        self._advance()

    def _advance(self) -> None:
        try:
            item = next(self._iter)
        except StopIteration:
            self._head = None
            return
        arrival = Arrival.of(item)
        time = arrival.submit_time
        if not (isfinite(time) and time >= self._last_time):
            raise ServeError(
                "arrival times must be finite and never go backwards: "
                f"{time} after {self._last_time}"
            )
        self._last_time = time
        self._head = arrival

    @property
    def exhausted(self) -> bool:
        return self._head is None

    def peek_time(self) -> float:
        """Submit time of the next arrival (+inf when exhausted)."""
        return self._head.submit_time if self._head else float("inf")

    def pop(self) -> Arrival:
        """Consume and return the next arrival."""
        if self._head is None:
            raise ServeError("arrival stream is exhausted")
        out = self._head
        self._advance()
        return out

    def pop_until(self, clock: float, limit: Optional[int] = None) -> "list[Arrival]":
        """Consume every arrival with ``submit_time <= clock``, the
        oldest ``limit`` of them when a limit is given."""
        out: "list[Arrival]" = []
        while (
            self._head is not None
            and self._head.submit_time <= clock
            and len(out) != limit
        ):
            out.append(self.pop())
        return out
