"""The measuring side of the host benchmark: one workload, in this process.

``run.py`` starts a fresh child per measurement and the child calls
:func:`timed_child` (``--trace 0``: end-to-end metrics, tracing off) or
:func:`traced_child` (``--trace 1``: per-layer metrics, the twins and
the output checks). Importing this module imports ``repro`` and NumPy,
which is why ``run.py`` only does so inside the child: the import is
part of ``setup_s``.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry_session

from benchmarks.host import metrics as M
from benchmarks.host.trace import PHASES, Tracer
from benchmarks.host.workloads import run_oracle
from benchmarks.host.yardstick import Yardstick
from benchmarks.host.yardstick import speed as yard_speed

QUICK_DIVISOR = 20
MIN_PASSES = 3
#: What one timed region takes here at the contract sizes, roughly; a
#: run of ``--seconds S`` is ``S / NOMINAL_PASS_S`` passes.
NOMINAL_PASS_S = 2.5
#: Yardstick slices on each side of a timed region (~0.15 s a side).
YARD_SLICES = 60


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accounting_failures(outcome: Any) -> int:
    """Shed arrivals plus admitted transactions that never executed."""
    never_executed = outcome.attempted - outcome.shed - outcome.executed
    return outcome.shed + max(never_executed, 0)


def verify(workload: Any, outcome: Any) -> Tuple[int, List[str]]:
    """Output checks on one finished pass, outside any timed region.

    Returns (failed operations beyond the accounting ones, notes). No
    wave may have fallen back to the interpreter, every recovery must
    be verified, and the final logical state must equal a serial
    ``CpuEngine`` replay in txn-id order (Definition 1).
    """
    failed = 0
    notes: List[str] = []
    fallbacks = sum(
        getattr(engine.backend, "waves_interpreted", 0)
        for engine in workload.engines()
        if engine.options.backend == "vectorized"
    )
    if fallbacks:
        failed += fallbacks
        notes.append(f"{fallbacks} waves fell back to the interpreter")
    unverified = sum(1 for ok in outcome.recoveries_verified if not ok)
    if unverified:
        failed += unverified
        notes.append(f"{unverified} recoveries not verified")
    if outcome.shed:
        # Pool ids no longer line up with arrival positions, so the
        # serial replay cannot be rebuilt from the inputs; the sheds
        # are already counted as failures.
        notes.append(f"{outcome.shed} arrivals shed; oracle replay skipped")
        return failed, notes
    for case in workload.oracle_cases():
        mismatched = run_oracle(case)
        if mismatched:
            failed += mismatched
            notes.append(f"{case.label}: {mismatched} oracle mismatches")
    return failed, notes


def sim_tuple(outcome: Any) -> Tuple[float, float, float, int]:
    return (outcome.sim_ktps, outcome.sim_p50_ms, outcome.sim_p99_ms,
            outcome.executed)


def pass_count(seconds: float) -> int:
    """A run is a fixed number of passes, so that one (seed, seconds)
    always means the same inputs; its duration follows the host."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S))


def pass_seed(seed: int, index: int) -> int:
    """Each pass of a run draws its own inputs: a run then samples
    several conflict graphs, not one, and its simulated metrics move
    less from seed to seed."""
    return seed * 100 + index


def measure(workload: Any, yard: Any) -> Tuple[Any, float]:
    """Run the timed region between two brackets of yardstick slices;
    returns (outcome, host speed relative to nominal)."""
    before = yard.slices(YARD_SLICES)
    outcome = workload.run()
    after = yard.slices(YARD_SLICES)
    return outcome, yard_speed(before, after)


def timed_child(cls: Any, seed: int, scale: float, passes: int,
                import_s: float, with_digest: bool) -> dict:
    """``--trace 0``: the end-to-end metrics, tracing off. The state
    digest of the last pass is for the suite's cross-repeat check;
    hashing a TPC-C database costs as much as a pass, so the contract
    form skips it."""
    yard = Yardstick()
    start = time.perf_counter()
    cls(pass_seed(seed, 0), scale / QUICK_DIVISOR).run()
    warmup_s = time.perf_counter() - start
    records: List[dict] = []
    workload = None
    for index in range(passes):
        workload = None  # free the previous pass before building the next
        start = time.perf_counter()
        workload = cls(pass_seed(seed, index), scale)
        construct_s = time.perf_counter() - start
        outcome, speed = measure(workload, yard)
        records.append(
            {"outcome": outcome, "construct_s": construct_s, "speed": speed}
        )
    rss = peak_rss_mb()
    outcomes = [r["outcome"] for r in records]
    failed, notes = verify(workload, outcomes[-1])
    failed += sum(accounting_failures(o) for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    values = {
        "host_tps": statistics.median(
            r["outcome"].executed / (r["outcome"].host_s * r["speed"])
            for r in records
        ),
        "peak_rss_mb": rss,
        "setup_s": (import_s + warmup_s) * records[0]["speed"]
        + statistics.median(r["construct_s"] * r["speed"] for r in records),
        "sim_ktps": statistics.fmean(o.sim_ktps for o in outcomes),
        "sim_p50_ms": statistics.fmean(o.sim_p50_ms for o in outcomes),
        "sim_p99_ms": statistics.fmean(o.sim_p99_ms for o in outcomes),
        "fail_share": failed / attempted,
        "recover_host_s": statistics.median(
            r["outcome"].recover_host_s * r["speed"] for r in records
        ),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in M.END_TO_END
        },
        "notes": notes,
        "passes": passes,
        "n_latency": sum(o.executed for o in outcomes),
        "digest": workload.physical_digest() if with_digest else None,
        "raw": {
            "host_s": [o.host_s for o in outcomes],
            "executed": [o.executed for o in outcomes],
            "speed": [r["speed"] for r in records],
            "construct_s": [r["construct_s"] for r in records],
            "import_s": import_s,
            "warmup_s": warmup_s,
        },
    }


def layer_values(tracer: Any, workload: Any, traced: Any, speed: float,
                 base: Any, base_speed: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; host seconds are scaled by
    the traced pass's yardstick speed. ``base`` is the untraced pass of
    the same inputs: rates and ratios a user would quote come from it,
    never from the traced pass."""
    values: Dict[str, float] = {m.name: 0.0 for m in M.PER_LAYER}
    tables = {phase: tracer.layer_table(phase) for phase in PHASES}
    for layer, phase in M.LAYERS.items():
        self_s, calls = tables[phase].get(layer, (0.0, 0))
        values[f"{layer}.self_s"] = self_s * speed
        values[f"{layer}.calls"] = calls
    counts, samples = tracer.counts, tracer.samples
    base_s = base.host_s * base_speed
    values["bench.traced_s"] = speed * sum(
        self_s for self_s, _calls in tables["timed"].values()
    )
    values["bench.trace_overhead_ratio"] = traced.host_s * speed / base_s
    values["serve.stream.arrivals"] = counts["serve.stream.arrivals"]
    runtime = getattr(workload, "runtime", None)
    if runtime is not None:
        stats = runtime.admission.stats
        values["serve.admission.offered"] = stats.offered
        values["serve.admission.rejected"] = stats.rejected
        values["serve.admission.high_water"] = stats.high_water
        values["serve.controller.bulks"] = traced.bulks
        values["serve.controller.mean_bulk"] = traced.mean_bulk
    call_txns = samples["core.engine.call_txns"]
    if call_txns:
        call_ms = samples["core.engine.call_ms"]
        values["core.engine.txns_per_call"] = statistics.fmean(call_txns)
        values["core.engine.call_p50_ms"] = float(np.percentile(call_ms, 50)) * speed
        values["core.engine.call_p95_ms"] = float(np.percentile(call_ms, 95)) * speed
    if counts["core.engine.results"]:
        values["core.engine.aborted_share"] = (
            counts["core.engine.aborted"] / counts["core.engine.results"]
        )
    for strategy in ("kset", "part", "tpl"):
        key = f"core.chooser.picked_{strategy}"
        values[key] = counts[key]
    values["core.kset.waves"] = tracer.named("pop_zero_set")[1]
    for part, (txns, seconds) in base.parts.items():
        values[f"core.strategies.host_tps.{part}"] = txns / (
            seconds * base_speed
        )
    launches = values["core.backends.launch.calls"]
    if launches:
        values["core.backends.launch.lanes_per_launch"] = (
            counts["core.backends.launch.lanes"] / launches
        )
    engines = workload.engines()
    values["core.backends.launch.fallbacks"] = sum(
        getattr(e.backend, "waves_interpreted", 0) for e in engines
    )
    values["core.backends.launch.wall_launch_s"] = speed * sum(
        e.backend.wall_launch_seconds for e in engines
    )
    values["gpu.model_vs_host_ratio"] = (
        base.sim_ktps * 1e3 / (base.executed / base_s)
    )
    values["cluster.runtime.waves"] = counts["cluster.runtime.waves"]
    values["cluster.runtime.sub_bulks"] = counts["cluster.runtime.sub_bulks"]
    if counts["cluster.runtime.sub_bulks"]:
        values["cluster.runtime.sub_bulk_txns_mean"] = (
            counts["cluster.runtime.sub_bulk_txns"]
            / counts["cluster.runtime.sub_bulks"]
        )
    values["cluster.coordinator.cross_txns"] = counts[
        "cluster.coordinator.cross_txns"
    ]
    durability = getattr(getattr(workload, "cluster", None), "durability", None)
    if durability is not None:
        values["cluster.durability.commit_self_s"] = speed * tracer.named(
            "ShardDurability.commit_wave", "ShardWAL.append"
        )[0]
        values["cluster.durability.recover_self_s"] = speed * tracer.named(
            "ClusterTx.recover_shard", "ShardDurability.promote",
            "ShardDurability.reseed", "replay.replay_records",
        )[0]
        values["cluster.durability.recover_host_s"] = (
            base.recover_host_s * base_speed
        )
        values["cluster.durability.wal_records"] = durability.wal_records
        values["cluster.durability.wal_bytes"] = durability.wal_bytes
        values["cluster.durability.wal_bytes_per_txn"] = (
            durability.wal_bytes / traced.executed
        )
        values["cluster.durability.checkpoints"] = durability.checkpoints_taken
        values["cluster.durability.checkpoint_bytes"] = (
            durability.checkpoint_bytes
        )
        values["cluster.durability.replication_bytes"] = (
            durability.replication_bytes
        )
        values["cluster.durability.replayed_records"] = sum(
            r.replayed_records for r in getattr(workload, "recoveries", [])
        )
    migration = getattr(workload, "migration", None)
    if migration is not None:
        values["cluster.elastic.migrate_s"] = (
            speed * tracer.named("ClusterTx.migrate")[2]
        )
        values["cluster.elastic.moved_rows"] = migration.moved_rows
    values["workloads.build_db_s"] = speed * tracer.named(
        ".build_database", phase="setup"
    )[0]
    values["workloads.gen_s"] = speed * sum(
        acc[0] for (phase, layer, name), acc in tracer.acc.items()
        if phase == "setup" and layer == "workloads" and ".generate_" in name
    )
    return values


def traced_child(cls: Any, seed: int, scale: float, passes: int,
                 trace_out: Optional[str]) -> dict:
    """``--trace 1``: one untraced pass for reference, one traced pass
    for the layer attribution, then the twins and the output checks --
    all on the inputs of the untraced run's last pass, so that the two
    kinds of run must end in the same state digest."""
    seed = pass_seed(seed, passes - 1)
    yard = Yardstick()
    cls(seed, scale / QUICK_DIVISOR).run()
    base_workload = cls(seed, scale)
    base, base_speed = measure(base_workload, yard)
    base_s = base.host_s * base_speed
    base_digest = base_workload.physical_digest()
    del base_workload

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.region("setup", "setup"):
            workload = cls(seed, scale)
        before = yard.slices(YARD_SLICES)
        with tracer.region(cls.name, "timed"):
            traced = workload.run()
        speed = yard_speed(before, yard.slices(YARD_SLICES))
        with tracer.region("check", "check"):
            start = time.perf_counter()
            failed, notes = verify(workload, traced)
            oracle_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    failed += accounting_failures(traced)
    if (workload.physical_digest() != base_digest
            or sim_tuple(traced) != sim_tuple(base)):
        failed += 1
        notes.append("traced pass differs from the untraced pass")
    values = layer_values(tracer, workload, traced, speed, base, base_speed)
    values["cpu.oracle_s"] = oracle_wall * speed

    if cls.name.startswith("serve_"):
        # The untimed interpreter twin: same state, same simulated clock.
        twin = cls(seed, scale, backend="interpreted")
        twin_outcome, twin_speed = measure(twin, yard)
        if (twin.physical_digest() != base_digest
                or sim_tuple(twin_outcome) != sim_tuple(base)):
            failed += 1
            notes.append("interpreter twin differs from the vectorized run")
        values["core.backends.vec_over_interp"] = (
            (base.executed / base_s)
            / (twin_outcome.executed / (twin_outcome.host_s * twin_speed))
        )
        del twin
    if cls.name == "cluster_recover":
        # No faults, no migration: the same logical state must result.
        twin = cls(seed, scale, faults=False)
        twin.run()
        if twin.physical_digest() != base_digest:
            failed += 1
            notes.append("final state differs from the no-fault twin")
        del twin
    if cls.name == "serve_overload":
        with telemetry_session():
            observed, observed_speed = measure(cls(seed, scale), yard)
        values["telemetry.on_overhead_ratio"] = (
            observed.host_s * observed_speed / base_s
        )
    values["bench.fail_share"] = failed / traced.attempted

    if trace_out:
        with open(trace_out, "w") as handle:
            json.dump({"traceEvents": tracer.chrome_events(),
                       "displayTimeUnit": "ms"}, handle)
    return {
        "correct": failed == 0,
        "attempted": traced.attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit}
            for m in M.PER_LAYER
        },
        "notes": notes,
        "digest": base_digest,
    }
