"""Shared machinery for the figure-reproduction benchmarks.

Every experiment in :mod:`repro.bench.figures` returns a
:class:`FigureResult` -- the series the paper's figure plots, as rows.
The bench scripts under ``benchmarks/`` print the table and persist it
under ``benchmarks/results/`` so a full run leaves the whole evaluation
section on disk.

Scale handling: the paper's experiments run millions of transactions on
real silicon; the simulator steps micro-ops in Python, so default sizes
are scaled down (every *ratio* is preserved -- both sides of each
comparison use one cost model). Set ``REPRO_SCALE=paper`` to multiply
workload sizes by 8 if you can spare the hours.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import GPUTx
from repro.core.txn import TransactionPool
from repro.cpu.engine import CpuEngine

#: Multiplier applied to workload sizes (REPRO_SCALE=paper -> 8).
SCALE = 8 if os.environ.get("REPRO_SCALE", "").lower() == "paper" else 1

#: Divisor applied under the CI smoke lane (REPRO_BENCH_SMOKE=1): the
#: figure functions run end to end on tiny workloads, so API drift in
#: any bench breaks CI in seconds instead of rotting silently. Read
#: per call (not at import) so a test can flip the lane on and off.
SMOKE_DIVISOR = 48
SMOKE_FLOOR = 24


def scaled(n: int) -> int:
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return max(SMOKE_FLOOR, n // SMOKE_DIVISOR)
    return n * SCALE


@dataclass
class FigureResult:
    """One reproduced figure/table: header + rows + commentary."""

    figure_id: str
    title: str
    columns: List[str]
    rows: List[Sequence[Any]]
    notes: List[str] = field(default_factory=list)
    #: Optional explicit (metric name, value) headline for the CI
    #: perf-trajectory lane; when absent, :func:`headline_metric`
    #: falls back to the best value of a known throughput column.
    headline: Optional[Tuple[str, float]] = None

    def format_table(self) -> str:
        """Render as a markdown table with the notes below."""
        widths = [len(c) for c in self.columns]
        rendered_rows = []
        for row in self.rows:
            rendered = [_format_cell(v) for v in row]
            widths = [max(w, len(r)) for w, r in zip(widths, rendered)]
            rendered_rows.append(rendered)
        header = " | ".join(
            c.ljust(w) for c, w in zip(self.columns, widths)
        )
        rule = "-|-".join("-" * w for w in widths)
        lines = [
            f"## {self.figure_id}: {self.title}",
            "",
            f"| {header} |",
            f"|-{rule}-|",
        ]
        for rendered in rendered_rows:
            body = " | ".join(r.ljust(w) for r, w in zip(rendered, widths))
            lines.append(f"| {body} |")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        return "\n".join(lines)

    def column(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)


def run_gpu_bulk(
    build_db: Callable[[], Any],
    procedures,
    specs,
    strategy: str,
    block_size: int = 256,
    **options: Any,
):
    """Build a fresh engine, run one bulk, return the ExecutionResult."""
    db = build_db()
    engine = GPUTx(db, procedures=procedures, block_size=block_size)
    engine.submit_many(specs)
    return engine.run_bulk(strategy=strategy, **options)


def run_cpu_batch(build_db, procedures, specs, num_cores: Optional[int] = None):
    """Run the same specs through the CPU counterpart."""
    db = build_db()
    engine = CpuEngine(db, procedures=procedures, num_cores=num_cores)
    pool = TransactionPool()
    pool.submit_specs(specs)
    return engine.execute(pool.take())


def throughput_ktps(result) -> float:
    """ktps of either engine's result object."""
    if hasattr(result, "throughput_ktps"):
        return result.throughput_ktps
    return result.throughput_tps() / 1e3


def save_result(result: FigureResult, directory: str = "benchmarks/results") -> str:
    """Persist the rendered table; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.figure_id.lower()}.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.format_table())
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# CI perf trajectory: headline metrics as machine-readable JSON.
# ---------------------------------------------------------------------------
#: Column names eligible as a figure's headline metric, in preference
#: order. All are higher-is-better, so the regression gate
#: (``scripts/bench_compare.py``) only needs one comparison direction;
#: figures without any of these (byte-count tables, pure-latency
#: series) simply have no headline and are not gated.
HEADLINE_COLUMNS = (
    "sustained_ktps",
    "ktps",
    "gpu_ktps",
    "kset_ktps",
    "bulk_ktps",
    "base_ktps",
    "wal_ktps",
    "speedup",
    "gputx_norm",
)


def headline_metric(result: FigureResult) -> Optional[Tuple[str, float]]:
    """The figure's one-number summary for the perf-trajectory lane.

    An explicit ``result.headline`` wins; otherwise the best (max)
    value of the first :data:`HEADLINE_COLUMNS` column present.
    """
    if result.headline is not None:
        name, value = result.headline
        return name, float(value)
    for column in HEADLINE_COLUMNS:
        if column in result.columns:
            values = [
                float(v)
                for v in result.column(column)
                if isinstance(v, (int, float))
            ]
            if values:
                return column, max(values)
    return None


def collect_headlines(
    figure_fns: Dict[str, Callable[[], FigureResult]],
) -> Dict[str, Dict[str, Any]]:
    """Run figure functions; map figure id -> headline metric record."""
    out: Dict[str, Dict[str, Any]] = {}
    for fn in figure_fns.values():
        result = fn()
        metric = headline_metric(result)
        if metric is None:
            continue
        out[result.figure_id] = {"metric": metric[0], "value": metric[1]}
    return out


def write_bench_json(
    headlines: Dict[str, Dict[str, Any]], path: str
) -> str:
    """Persist a ``BENCH_PR<k>.json`` perf-trajectory artifact."""
    payload = {
        "schema": 1,
        "smoke": bool(os.environ.get("REPRO_BENCH_SMOKE")),
        "scale": SCALE,
        "figures": headlines,
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def trajectory_figures() -> Dict[str, Callable[[], FigureResult]]:
    """Every zero-arg figure function the perf lane runs.

    Imported lazily so ``repro.bench.harness`` stays importable
    without dragging every workload module in.
    """
    from repro.bench import backend as bench_backend
    from repro.bench import cluster as bench_cluster
    from repro.bench import coverage as bench_coverage
    from repro.bench import durability as bench_durability
    from repro.bench import elastic as bench_elastic
    from repro.bench import scenarios as bench_scenarios
    from repro.bench import serving as bench_serving
    from repro.bench.figures import ALL_FIGURES

    fns: Dict[str, Callable[[], FigureResult]] = dict(ALL_FIGURES)
    fns.update(bench_cluster.FIGURES)
    fns.update(bench_durability.FIGURES)
    fns.update(bench_serving.FIGURES)
    fns.update(bench_backend.FIGURES)
    fns.update(bench_coverage.FIGURES)
    fns.update(bench_elastic.FIGURES)
    fns.update(bench_scenarios.FIGURES)
    return fns


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro bench --out BENCH_PR<k>.json``.

    Runs every figure function in smoke mode (tiny workloads; the
    simulated-clock metrics are deterministic, so runner speed does
    not leak into the numbers) and writes the headline-metric JSON
    the CI perf-trajectory lane uploads and gates on.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Emit the perf-trajectory headline-metric JSON."
    )
    parser.add_argument(
        "--out",
        default="BENCH_PR.json",
        help="output path (CI names this BENCH_PR<k>.json)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at full (non-smoke) workload sizes",
    )
    parser.add_argument(
        "--trace",
        metavar="TRACE_JSON",
        default=None,
        help="record the run's telemetry and write a Chrome/Perfetto "
        "trace-event JSON here (plus <path>.metrics.json)",
    )
    args = parser.parse_args(argv)
    if args.full:
        # A stale REPRO_BENCH_SMOKE from the shell would silently turn
        # a "full" run into a 48x-shrunk one.
        os.environ.pop("REPRO_BENCH_SMOKE", None)
    else:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    if args.trace:
        import repro.telemetry as telemetry

        with telemetry.session() as tel:
            headlines = collect_headlines(trajectory_figures())
        trace_path = tel.write(args.trace)
        metrics_path = telemetry.write_metrics(
            f"{args.trace}.metrics.json", tel.metrics
        )
        print(f"wrote trace to {trace_path} and metrics to {metrics_path}")
    else:
        headlines = collect_headlines(trajectory_figures())
    path = write_bench_json(headlines, args.out)
    print(f"wrote {len(headlines)} headline metrics to {path}")
    return 0
