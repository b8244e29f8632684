"""Life-of-a-bulk tracing on the simulated and the wall clock.

A :class:`Tracer` records a tree of :class:`Span`\\ s per bulk:
admission wait, bulk forming, ``transfer_in``, each wave (tagged with
strategy, backend, transaction and conflict counts), WAL sync,
checkpoint ship, replica ship, and the failover recovery phases.
Every span carries *two* clocks:

* the **simulated** clock -- the paper's microsecond decomposition,
  byte-identical whether tracing is on or off (tracing only *observes*
  the engine's :class:`~repro.gpu.costmodel.TimeBreakdown` accounting,
  it never feeds back into it);
* the **wall** clock -- host ``perf_counter`` seconds, for finding
  interpreter hot spots.

Spans are grouped into **tracks** (the lanes a Chrome/Perfetto viewer
shows: one per shard, one for the DMA engine, one for the serving
front half) and **layers** (which subsystem's accounting a span
belongs to: ``engine``, ``shard``, ``cluster``, ``serve``). Layers
exist so per-phase totals aggregate without double counting: a
cluster bulk charges the critical shard's phases at the ``cluster``
layer while every shard's own sub-bulk detail stays at the ``shard``
layer.

Instrumentation goes through the context-var session in
:mod:`repro.telemetry` and is no-op-cheap when disabled: each
instrumented call path performs one context-var read and branches
away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Span categories (the ``cat`` field of exported trace events).
CAT_BULK = "bulk"
CAT_PHASE = "phase"
CAT_WAVE = "wave"
CAT_SPAN = "span"


@dataclass
class Span:
    """One completed (or still-open) region of the trace."""

    span_id: int
    parent_id: Optional[int]
    name: str
    cat: str
    track: str
    layer: str
    sim_start_s: float
    wall_start_s: float
    sim_end_s: Optional[float] = None
    wall_end_s: Optional[float] = None
    tags: Dict[str, Any] = field(default_factory=dict)
    #: Layout cursor for children laid out sequentially inside this
    #: span (simulated seconds). Not exported.
    cursor: float = 0.0

    @property
    def sim_duration_s(self) -> float:
        end = self.sim_end_s if self.sim_end_s is not None else self.cursor
        return max(0.0, end - self.sim_start_s)

    @property
    def wall_duration_s(self) -> float:
        if self.wall_end_s is None:
            return 0.0
        return max(0.0, self.wall_end_s - self.wall_start_s)


class Tracer:
    """Records span trees over a simulated-clock cursor.

    The tracer owns a simulated-time cursor (:attr:`sim_now`) that
    root spans start from and advance; nested spans lay out from their
    parent's cursor. Callers that know better (the serve loop, which
    knows each bulk's true start time; the cluster runtime, whose
    parallel waves share one start) pass explicit times.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.sim_now = 0.0
        #: Default track and layer for new spans; the cluster runtime
        #: repoints these around shard-engine calls so nested engine
        #: instrumentation lands on the right lane unchanged.
        self.track = "gpu0"
        self.layer = "engine"
        #: Track DMA-borne phases default to. Sequential callers (a
        #: single engine, the cluster's critical path) share the "dma"
        #: lane; the cluster repoints it to the shard's own lane around
        #: parallel sub-bulks, where a shared lane would interleave.
        self.dma_track = "dma"
        self._stack: List[Span] = []
        self._next_id = 1
        self._wall_origin = time.perf_counter()

    # ------------------------------------------------------------------
    def _wall(self) -> float:
        return time.perf_counter() - self._wall_origin

    def _new_span(
        self,
        name: str,
        cat: str,
        track: Optional[str],
        layer: Optional[str],
        parent: Optional[Span],
        sim_start: float,
        tags: Dict[str, Any],
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            cat=cat,
            track=track if track is not None else self.track,
            layer=layer if layer is not None else self.layer,
            sim_start_s=sim_start,
            wall_start_s=self._wall(),
            tags=dict(tags),
        )
        span.cursor = sim_start
        self._next_id += 1
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        cat: str = CAT_SPAN,
        track: Optional[str] = None,
        layer: Optional[str] = None,
        sim_start: Optional[float] = None,
        **tags: Any,
    ) -> Span:
        """Open a span; children lay out from its cursor.

        ``sim_start`` defaults to the enclosing open span's cursor, or
        :attr:`sim_now` at top level.
        """
        parent = self._stack[-1] if self._stack else None
        if sim_start is None:
            sim_start = parent.cursor if parent is not None else self.sim_now
        span = self._new_span(name, cat, track, layer, parent, sim_start, tags)
        self._stack.append(span)
        return span

    def end(
        self,
        span: Span,
        *,
        sim_end: Optional[float] = None,
        advance_parent: bool = False,
        **tags: Any,
    ) -> Span:
        """Close ``span`` (and anything left open inside it).

        ``sim_end`` defaults to the span's cursor -- i.e. the end of
        its last sequentially laid-out child. ``advance_parent`` moves
        the parent's cursor to ``sim_end`` (for sequential nesting;
        parallel children -- shard sub-bulks -- leave it alone and the
        parent closes itself explicitly). Closing a root span advances
        :attr:`sim_now`.
        """
        while self._stack and self._stack[-1] is not span:
            self.end(self._stack[-1])
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if sim_end is None:
            sim_end = max(span.cursor, span.sim_start_s)
        span.sim_end_s = sim_end
        span.wall_end_s = self._wall()
        span.tags.update(tags)
        if span.parent_id is None:
            self.sim_now = max(self.sim_now, sim_end)
        elif advance_parent and self._stack:
            parent = self._stack[-1]
            parent.cursor = max(parent.cursor, sim_end)
        return span

    def phase(
        self,
        name: str,
        seconds: float,
        *,
        cat: str = CAT_PHASE,
        track: Optional[str] = None,
        layer: Optional[str] = None,
        **tags: Any,
    ) -> Span:
        """Record a completed child span of ``seconds`` at the cursor.

        The enclosing open span's cursor advances past it (sequential
        layout); at top level :attr:`sim_now` advances instead. This
        is how a :class:`~repro.gpu.costmodel.TimeBreakdown` becomes
        trace geometry -- one phase call per breakdown entry keeps the
        per-phase totals reconcilable to the float.
        """
        parent = self._stack[-1] if self._stack else None
        start = parent.cursor if parent is not None else self.sim_now
        span = self._new_span(name, cat, track, layer, parent, start, tags)
        span.sim_end_s = start + seconds
        span.wall_end_s = span.wall_start_s
        if parent is not None:
            parent.cursor = span.sim_end_s
        else:
            self.sim_now = span.sim_end_s
        return span

    def decomposed_phase(
        self,
        name: str,
        seconds: float,
        parts: Sequence[Tuple[str, float]],
        **span: Any,
    ) -> Span:
        """Record one phase of ``seconds`` (``span``: :meth:`begin`'s
        track, layer and tags) with its ``parts`` back to back on the
        DMA lane beneath it. It closes at ``start + seconds`` whatever
        the parts sum to (reconciling with the caller's breakdown
        entry) and advances the enclosing span's cursor."""
        phase = self.begin(name, cat=CAT_PHASE, **span)
        for part, part_seconds in parts:
            self.phase(part, part_seconds, cat=CAT_SPAN, track="dma")
        return self.end(
            phase, sim_end=phase.sim_start_s + seconds, advance_parent=True
        )

    def complete(
        self,
        name: str,
        sim_start: float,
        sim_end: float,
        *,
        parent: Optional[Span] = None,
        cat: str = CAT_SPAN,
        track: Optional[str] = None,
        layer: Optional[str] = None,
        **tags: Any,
    ) -> Span:
        """Record a finished span at explicit simulated times."""
        span = self._new_span(name, cat, track, layer, parent, sim_start, tags)
        span.sim_end_s = max(sim_start, sim_end)
        span.wall_end_s = span.wall_start_s
        return span

    # ------------------------------------------------------------------
    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def close_all(self) -> None:
        """Close any spans left open (crash/early-exit hygiene)."""
        while self._stack:
            self.end(self._stack[-1])
