"""Names, units and bounds of every metric the host benchmark prints.

This is the single source ``BENCHMARK.json``, ``run.py``, ``compare.py``
and the README's glossary agree on; ``test_hostbench.py`` asserts the
JSON file matches it name for name.

Bounds are shares of the base median by which a metric may worsen
before it counts as a regression. Each is about three times the
spread (IQR / median) that ten runs of one commit at ten seeds showed
here: 3-10 % for the calibrated host-clock metrics, and for the
simulated-clock metrics the seed-to-seed variation of the generated
inputs (up to 9 / 5 / 12 % on ``bulk_contended``). At a *fixed* seed
the simulated metrics must repeat exactly, which ``compare.py``
enforces (``exact``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Allowed worsening as a share of the base median (end-to-end only).
    bound: Optional[float] = None
    #: Deterministic: bit-identical across runs at one seed.
    exact: bool = False
    #: Printed by the contract command (``--trace 0``); the rest only
    #: appear in the suite report (they can be 0 by design).
    contract: bool = True


END_TO_END: List[Metric] = [
    Metric("host_tps", "txn/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("sim_ktps", "ktxn/sim-s", "higher", 0.25, exact=True),
    Metric("sim_p50_ms", "sim-ms", "lower", 0.15, exact=True),
    Metric("sim_p99_ms", "sim-ms", "lower", 0.25, exact=True),
    Metric("fail_share", "ratio", "lower", 0.0, exact=True, contract=False),
    Metric("recover_host_s", "s", "lower", 0.25, contract=False),
]

#: Contract-size inputs as a share of the ISSUE-12 sizes, chosen so one
#: timed region is 2-3 s here and a run fits four.
SCALES = {
    "serve_overload": 0.35,
    "serve_sharded": 0.4,
    "bulk_wide": 0.3,
    "bulk_contended": 0.3,
    "cluster_recover": 0.25,
}

#: Why each workload exists (``BENCHMARK.json`` carries these lines).
WHY = {
    "serve_overload": "single-engine serving at 2M tps offered: wide bulks, "
    "so per-transaction object work dominates, not per-launch cost",
    "serve_sharded": "4-shard durable serving: thousands of ~8-txn sub-bulks, "
    "so fixed cost per execute_bulk, cost replay and WAL append dominate",
    "bulk_wide": "16k-spec bulks on shallow conflict graphs: no serve or "
    "cluster layer, profile/rank plus a few wide vector launches",
    "bulk_contended": "skewed SmallBank and full-mix TPC-C: deep graphs and "
    "locks, so launch count dominates and lane width does not",
    "cluster_recover": "durable range-routed cluster with four shard kills "
    "and a migration: reads back the WAL that serve_sharded writes",
}

#: Layers in reading order (serve -> core -> gpu/storage -> cluster),
#: and the phase of the traced run each one is measured in.
LAYERS: Dict[str, str] = {
    "serve.runtime": "timed",
    "serve.stream": "timed",
    "serve.admission": "timed",
    "serve.controller": "timed",
    "serve.metrics": "timed",
    "core.txn": "timed",
    "core.engine": "timed",
    "core.profiler": "timed",
    "core.kset": "timed",
    "core.strategies": "timed",
    "core.executor": "timed",
    "core.backends.launch": "timed",
    "core.backends.replay": "timed",
    "gpu": "timed",
    "storage": "timed",
    "cluster.runtime": "timed",
    "cluster.router": "timed",
    "cluster.coordinator": "timed",
    "cluster.durability": "timed",
    "cluster.elastic": "timed",
    "bench": "timed",
    "workloads": "setup",
    "cpu": "check",
}

#: The six (workload, strategy) parts of the two bulk workloads.
PARTS = (
    "tm1-auto", "tpcb-part", "smallbank-kset",
    "smallbank09-kset", "tpcc-tpl", "tpcc-kset",
)

_EXTRAS = [
    ("serve.stream.arrivals", "count", "higher"),
    ("serve.admission.offered", "count", "higher"),
    ("serve.admission.rejected", "count", "lower"),
    ("serve.admission.high_water", "count", "lower"),
    ("serve.controller.bulks", "count", "lower"),
    ("serve.controller.mean_bulk", "txn", "higher"),
    ("core.engine.txns_per_call", "txn", "higher"),
    ("core.engine.call_p50_ms", "ms", "lower"),
    ("core.engine.call_p95_ms", "ms", "lower"),
    ("core.engine.aborted_share", "ratio", "lower"),
    ("core.chooser.picked_kset", "count", "higher"),
    ("core.chooser.picked_part", "count", "higher"),
    ("core.chooser.picked_tpl", "count", "higher"),
    ("core.kset.waves", "count", "lower"),
    *[(f"core.strategies.host_tps.{part}", "txn/s", "higher") for part in PARTS],
    ("core.backends.launch.lanes_per_launch", "txn", "higher"),
    ("core.backends.launch.fallbacks", "count", "lower"),
    ("core.backends.launch.wall_launch_s", "s", "lower"),
    ("core.backends.vec_over_interp", "ratio", "higher"),
    ("gpu.model_vs_host_ratio", "ratio", "lower"),
    ("cluster.runtime.waves", "count", "lower"),
    ("cluster.runtime.sub_bulks", "count", "lower"),
    ("cluster.runtime.sub_bulk_txns_mean", "txn", "higher"),
    ("cluster.coordinator.cross_txns", "count", "lower"),
    ("cluster.durability.commit_self_s", "s", "lower"),
    ("cluster.durability.recover_self_s", "s", "lower"),
    ("cluster.durability.recover_host_s", "s", "lower"),
    ("cluster.durability.wal_records", "count", "lower"),
    ("cluster.durability.wal_bytes", "B", "lower"),
    ("cluster.durability.wal_bytes_per_txn", "B/txn", "lower"),
    ("cluster.durability.checkpoints", "count", "lower"),
    ("cluster.durability.checkpoint_bytes", "B", "lower"),
    ("cluster.durability.replication_bytes", "B", "lower"),
    ("cluster.durability.replayed_records", "count", "lower"),
    ("cluster.elastic.migrate_s", "s", "lower"),
    ("cluster.elastic.moved_rows", "count", "lower"),
    ("workloads.build_db_s", "s", "lower"),
    ("workloads.gen_s", "s", "lower"),
    ("telemetry.on_overhead_ratio", "ratio", "lower"),
    ("cpu.oracle_s", "s", "lower"),
    ("bench.traced_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.fail_share", "ratio", "lower"),
]

PER_LAYER: List[Metric] = [
    metric
    for layer in LAYERS
    for metric in (
        Metric(f"{layer}.self_s", "s", "lower"),
        Metric(f"{layer}.calls", "count", "lower"),
    )
] + [Metric(name, unit, better) for name, unit, better in _EXTRAS]


def manifest(command: List[str], paths: List[str], run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these definitions imply."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": WHY[name]} for name in SCALES
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.contract
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
