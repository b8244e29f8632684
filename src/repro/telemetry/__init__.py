"""Unified telemetry: tracing, metrics, and Perfetto-loadable export.

The package bundles three pieces:

* :mod:`repro.telemetry.trace` -- span trees over the simulated and
  the wall clock (life-of-a-bulk tracing);
* :mod:`repro.telemetry.metrics` -- a cross-layer registry of
  counters, gauges, and exact-sample histograms (also the home of the
  repository's single percentile implementation);
* :mod:`repro.telemetry.export` -- Chrome trace-event JSON emission
  plus the schema validator CI runs on emitted artifacts.

Instrumented code never touches those directly; it asks for the
ambient :class:`TelemetrySession` via :func:`current`, which costs one
context-var read when telemetry is off::

    session = telemetry.current()
    if session is not None:
        session.tracer.phase("transfer_in", seconds)

Enable telemetry for a block of code with :func:`session`, for a whole
process with :func:`install`, or for any example/bench run -- no code
changes -- with ``REPRO_TRACE=1`` (see :func:`install_from_env`).
"""

from __future__ import annotations

import atexit
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.telemetry.export import (
    load_trace,
    to_chrome_trace,
    validate_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.telemetry.trace import (
    CAT_BULK,
    CAT_PHASE,
    CAT_SPAN,
    CAT_WAVE,
    Span,
    Tracer,
)

__all__ = [
    "CAT_BULK",
    "CAT_PHASE",
    "CAT_SPAN",
    "CAT_WAVE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TelemetrySession",
    "Tracer",
    "current",
    "install",
    "install_from_env",
    "load_trace",
    "percentile",
    "session",
    "to_chrome_trace",
    "uninstall",
    "validate_chrome_trace",
    "write_metrics",
    "write_trace",
]

#: Environment toggle: ``REPRO_TRACE=1`` traces the whole process and
#: writes ``repro-trace.json`` (or ``$REPRO_TRACE_FILE``) at exit.
TRACE_ENV = "REPRO_TRACE"
TRACE_FILE_ENV = "REPRO_TRACE_FILE"
DEFAULT_TRACE_FILE = "repro-trace.json"


@dataclass
class TelemetrySession:
    """One tracer + one metrics registry, active together."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def trace(self) -> dict:
        """Render the session as a Chrome trace-event object."""
        self.tracer.close_all()
        return to_chrome_trace(self.tracer, self.metrics)

    def write(self, path: str) -> str:
        """Write the session's trace JSON; returns the path."""
        self.tracer.close_all()
        return write_trace(path, self.tracer, self.metrics)


_session: ContextVar[Optional[TelemetrySession]] = ContextVar(
    "repro_telemetry_session", default=None
)


def current() -> Optional[TelemetrySession]:
    """The ambient session, or ``None`` when telemetry is off.

    This is the *only* call instrumented hot paths make when tracing
    is disabled -- a single context-var read and a branch.
    """
    return _session.get()


@contextmanager
def session(
    existing: Optional[TelemetrySession] = None,
) -> Iterator[TelemetrySession]:
    """Activate a telemetry session for the ``with`` block."""
    active = existing if existing is not None else TelemetrySession()
    token = _session.set(active)
    try:
        yield active
    finally:
        active.tracer.close_all()
        _session.reset(token)


def install(
    existing: Optional[TelemetrySession] = None,
) -> TelemetrySession:
    """Activate a session process-wide (until :func:`uninstall`)."""
    active = existing if existing is not None else TelemetrySession()
    _session.set(active)
    return active


def uninstall() -> Optional[TelemetrySession]:
    """Deactivate the ambient session and return it."""
    active = _session.get()
    if active is not None:
        active.tracer.close_all()
    _session.set(None)
    return active


def _env_truthy(value: Optional[str]) -> bool:
    return bool(value) and value.strip().lower() not in ("0", "false", "no", "")


def install_from_env() -> Optional[TelemetrySession]:
    """Honor ``REPRO_TRACE=1``: trace the process, write at exit.

    Called from :mod:`repro`'s package init so *every* example, bench
    run, and script gains ``--trace``-like behavior from the
    environment with zero per-caller changes. The trace lands in
    ``$REPRO_TRACE_FILE`` (default ``repro-trace.json``).
    """
    if not _env_truthy(os.environ.get(TRACE_ENV)):
        return None
    active = install()
    path = os.environ.get(TRACE_FILE_ENV) or DEFAULT_TRACE_FILE

    def _flush() -> None:
        try:
            active.write(path)
        except OSError:  # pragma: no cover - exit-time best effort
            pass

    atexit.register(_flush)
    return active
