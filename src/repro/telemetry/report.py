"""Paper-style reporting over an exported trace.

``python -m repro telemetry report trace.json`` prints the
phase-breakdown table (the Figure-5 view: per-phase simulated totals
and shares) and the top-N slowest bulks. The aggregation helpers are
importable so tests can reconcile a trace against the engine's
:class:`~repro.gpu.costmodel.TimeBreakdown` to the float.

Phase totals aggregate ``cat == "phase"`` events, grouped by the
``layer`` each span was recorded at (``engine``, ``shard``,
``cluster``, ``serve``): a cluster bulk's critical-path phases live at
the ``cluster`` layer while the per-shard sub-bulk detail lives at
``shard``, so no phase is ever counted twice within one layer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


def _spans_from_events(
    events: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Rebuild completed spans from matched B/E pairs, per track."""
    stacks: Dict[Any, List[Dict[str, Any]]] = {}
    spans: List[Dict[str, Any]] = []
    for event in events:
        ph = event.get("ph")
        if ph == "B":
            key = (event.get("pid"), event.get("tid"))
            stacks.setdefault(key, []).append(event)
        elif ph == "E":
            key = (event.get("pid"), event.get("tid"))
            stack = stacks.get(key)
            if not stack:
                continue
            opener = stack.pop()
            args = opener.get("args", {}) or {}
            spans.append(
                {
                    "name": opener.get("name", ""),
                    "cat": opener.get("cat", ""),
                    "layer": args.get("layer", ""),
                    "track": key,
                    "ts_us": float(opener.get("ts", 0.0)),
                    "dur_us": max(
                        0.0,
                        float(event.get("ts", 0.0))
                        - float(opener.get("ts", 0.0)),
                    ),
                    "args": args,
                }
            )
    return spans


def trace_spans(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Completed spans of a loaded trace object."""
    return _spans_from_events(trace.get("traceEvents", []))


def phase_totals(
    trace: Dict[str, Any], layer: Optional[str] = None
) -> Dict[str, float]:
    """Per-phase simulated totals in **seconds**, optionally filtered
    to one layer. This is the table that must reconcile with the
    engine's ``TimeBreakdown``."""
    totals: Dict[str, float] = {}
    for span in trace_spans(trace):
        if span["cat"] != "phase":
            continue
        if layer is not None and span["layer"] != layer:
            continue
        totals[span["name"]] = (
            totals.get(span["name"], 0.0) + span["dur_us"] / 1e6
        )
    return totals


def layers(trace: Dict[str, Any]) -> List[str]:
    """Layers present in the trace, sorted."""
    return sorted(
        {s["layer"] for s in trace_spans(trace) if s["cat"] == "phase"}
    )


def slowest_bulks(
    trace: Dict[str, Any], top: int = 10
) -> List[Dict[str, Any]]:
    """The ``top`` slowest bulk spans, by simulated duration."""
    bulks = [s for s in trace_spans(trace) if s["cat"] == "bulk"]
    bulks.sort(key=lambda s: -s["dur_us"])
    return bulks[:top]


def _rows_to_table(columns: List[str], rows: List[List[str]]) -> str:
    widths = [len(c) for c in columns]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    header = " | ".join(c.ljust(w) for c, w in zip(columns, widths))
    rule = "-|-".join("-" * w for w in widths)
    lines = [f"| {header} |", f"|-{rule}-|"]
    for row in rows:
        body = " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        lines.append(f"| {body} |")
    return "\n".join(lines)


def format_phase_table(
    trace: Dict[str, Any], layer: Optional[str] = None
) -> str:
    """Markdown phase-breakdown table (one section per layer)."""
    sections: List[str] = []
    for current in [layer] if layer is not None else layers(trace):
        totals = phase_totals(trace, layer=current)
        grand = sum(totals.values())
        rows = [
            [
                phase,
                f"{seconds * 1e3:.6g}",
                f"{(seconds / grand * 100.0) if grand else 0.0:.1f}%",
            ]
            for phase, seconds in sorted(
                totals.items(), key=lambda kv: -kv[1]
            )
        ]
        rows.append(["total", f"{grand * 1e3:.6g}", "100.0%" if grand else "0.0%"])
        sections.append(
            f"## Phase breakdown [{current or 'all'}]\n\n"
            + _rows_to_table(["phase", "sim ms", "share"], rows)
        )
    return "\n\n".join(sections) if sections else "(no phase spans)"


def format_slowest_bulks(trace: Dict[str, Any], top: int = 10) -> str:
    """Markdown table of the slowest bulks."""
    bulks = slowest_bulks(trace, top)
    if not bulks:
        return "(no bulk spans)"
    rows = []
    for span in bulks:
        args = span["args"]
        rows.append(
            [
                span["name"],
                str(args.get("layer", "")),
                f"{span['dur_us'] / 1e3:.6g}",
                str(args.get("n_txns", "")),
                str(args.get("strategy", "")),
                str(args.get("backend", "")),
            ]
        )
    return (
        f"## Top {len(bulks)} slowest bulks\n\n"
        + _rows_to_table(
            ["bulk", "layer", "sim ms", "n_txns", "strategy", "backend"],
            rows,
        )
    )


def format_report(
    trace: Dict[str, Any], top: int = 10, layer: Optional[str] = None
) -> str:
    """The full ``telemetry report`` output."""
    return (
        format_phase_table(trace, layer=layer)
        + "\n\n"
        + format_slowest_bulks(trace, top=top)
    )


# ---------------------------------------------------------------------------
# CLI (python -m repro telemetry ...).
# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """``report <trace.json>`` and ``validate <trace.json>``."""
    import argparse

    from repro.telemetry.export import load_trace, validate_chrome_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry",
        description="Inspect and validate exported traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="phase breakdown + slowest bulks")
    rep.add_argument("trace", help="Chrome trace-event JSON file")
    rep.add_argument("--top", type=int, default=10)
    rep.add_argument(
        "--layer", default=None,
        help="restrict the phase table to one layer (engine/cluster/...)",
    )
    val = sub.add_parser("validate", help="schema-check a trace file")
    val.add_argument("trace", help="Chrome trace-event JSON file")
    args = parser.parse_args(argv)

    trace = load_trace(args.trace)
    problems = validate_chrome_trace(trace)
    if args.command == "validate":
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        events = [
            e for e in trace.get("traceEvents", []) if e.get("ph") != "M"
        ]
        print(f"OK: {len(events)} events, {len(layers(trace))} layer(s)")
        return 0
    if problems:
        print(f"warning: trace has {len(problems)} schema problem(s)")
    try:
        print(format_report(trace, top=args.top, layer=args.layer))
    except BrokenPipeError:  # piped into head/less that exited early
        return 0
    return 0
