"""Durability-overhead experiments (beyond the paper: WAL + replicas).

Two series, in the style of the figure reproductions:

* ``durability_overhead`` -- TM1 cluster throughput under per-shard
  WAL replication and copy-on-write checkpoints, swept over the two
  knobs of :class:`~repro.cluster.durability.DurabilityConfig`:
  checkpoint interval (shorter = more checkpoint bytes shipped, less
  WAL to replay on failure) and replica count (the primary's single
  copy engine serialises the K feeds, so replication time is linear
  in K). The volatile cluster of PR 1 is the baseline row.
* ``failover_recovery`` -- cost of a replica promotion as a function
  of the WAL suffix length: a shard is killed k bulks after its last
  checkpoint, and recovery replays exactly those k bulks' records on
  top of the restored snapshot.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bench.harness import FigureResult, scaled
from repro.cluster.durability import DurabilityConfig, PHASE_CHECKPOINT, PHASE_WAL_SYNC
from repro.cluster.runtime import ClusterTx
from repro.config import ClusterOptions
from repro.workloads import tm1

#: Workload sizes (pre-scale); kept modest so the simulator stays fast.
_N_SHARDS = 4
_N_BULKS = 6
_BULK_TXNS = 250
_SCALE_FACTOR = 1
_CROSS_FRACTION = 0.1


def _run_cluster(
    bulks: List[List[Tuple[str, tuple]]],
    durability: Optional[DurabilityConfig],
) -> Tuple[ClusterTx, float, int, dict]:
    db = tm1.build_database(_SCALE_FACTOR)
    cluster = ClusterTx(
        db,
        procedures=tm1.CLUSTER_PROCEDURES,
        n_shards=_N_SHARDS,
        options=ClusterOptions(durability=durability),
    )
    seconds = 0.0
    executed = 0
    phases: dict = {}
    for bulk in bulks:
        cluster.submit_many(bulk)
        while len(cluster.pool):
            result = cluster.run_bulk(strategy="kset")
            seconds += result.seconds
            executed += len(result.results)
            for phase, phase_seconds in result.breakdown.phases.items():
                phases[phase] = phases.get(phase, 0.0) + phase_seconds
    return cluster, seconds, executed, phases


def _tm1_bulks(n_bulks: int, bulk_txns: int) -> List[List[Tuple[str, tuple]]]:
    db = tm1.build_database(_SCALE_FACTOR)
    probe = ClusterTx(db, procedures=tm1.CLUSTER_PROCEDURES, n_shards=_N_SHARDS)
    return [
        tm1.generate_cluster_transactions(
            db,
            bulk_txns,
            shard_of=probe.router.shard_of_key,
            cross_shard_fraction=_CROSS_FRACTION,
            seed=400 + k,
        )
        for k in range(n_bulks)
    ]


def durability_overhead() -> FigureResult:
    """Throughput vs. checkpoint interval and replica count."""
    bulks = _tm1_bulks(_N_BULKS, scaled(_BULK_TXNS))
    configs: List[Tuple[str, Optional[DurabilityConfig]]] = [
        ("volatile (PR 1)", None),
        ("K=1, ckpt/8", DurabilityConfig(checkpoint_interval=8, n_replicas=1)),
        ("K=1, ckpt/2", DurabilityConfig(checkpoint_interval=2, n_replicas=1)),
        ("K=1, ckpt/1", DurabilityConfig(checkpoint_interval=1, n_replicas=1)),
        ("K=0, ckpt/2", DurabilityConfig(checkpoint_interval=2, n_replicas=0)),
        ("K=2, ckpt/2", DurabilityConfig(checkpoint_interval=2, n_replicas=2)),
        ("K=3, ckpt/2", DurabilityConfig(checkpoint_interval=2, n_replicas=3)),
    ]
    rows = []
    base_seconds = None
    for label, config in configs:
        cluster, seconds, executed, phases = _run_cluster(bulks, config)
        if base_seconds is None:
            base_seconds = seconds
        durability_share = (
            phases.get(PHASE_WAL_SYNC, 0.0) + phases.get(PHASE_CHECKPOINT, 0.0)
        ) / seconds
        rows.append(
            (
                label,
                config.checkpoint_interval if config else 0,
                config.n_replicas if config else 0,
                executed,
                seconds * 1e3,
                executed / seconds / 1e3,
                durability_share,
                (seconds / base_seconds - 1.0) * 100.0,
            )
        )
    return FigureResult(
        figure_id="DUR-1",
        title="Durable ClusterTx: WAL/checkpoint/replication overhead (TM1, 4 shards)",
        columns=["config", "ckpt_interval", "replicas", "txns", "sim_ms",
                 "ktps", "durability_share", "overhead_pct"],
        rows=rows,
        notes=[
            "Overhead = makespan vs. the volatile cluster. WAL records "
            "replicate synchronously per wave; checkpoints ship the "
            "whole partition, so interval=1 is the worst case.",
            "The primary's single copy engine serialises the K replica "
            "feeds: replication cost grows with K.",
        ],
    )


def failover_recovery() -> FigureResult:
    """Replica-promotion cost vs. WAL suffix length."""
    rows = []
    for bulks_since in (1, 3, 6):
        n_bulks = bulks_since + 1
        bulks = _tm1_bulks(n_bulks, scaled(_BULK_TXNS))
        db = tm1.build_database(_SCALE_FACTOR)
        cluster = ClusterTx(
            db,
            procedures=tm1.CLUSTER_PROCEDURES,
            n_shards=_N_SHARDS,
            # Interval larger than the run: only the seed checkpoint
            # (plus the post-recovery reseed) is ever taken, so the
            # whole history up to the kill is WAL suffix.
            options=ClusterOptions(
                durability=DurabilityConfig(
                    checkpoint_interval=100, n_replicas=1,
                )
            ),
        )
        cluster.failover.schedule_kill(1, bulk=bulks_since, wave=0)
        reports = []
        for bulk in bulks:
            cluster.submit_many(bulk)
            while len(cluster.pool):
                result = cluster.run_bulk(strategy="kset")
                reports.extend(result.failovers)
        assert len(reports) == 1, "exactly one scheduled failover"
        report = reports[0]
        rows.append(
            (
                bulks_since,
                report.replayed_records,
                report.replayed_entries,
                report.seconds * 1e3,
                report.verified,
            )
        )
    return FigureResult(
        figure_id="DUR-2",
        title="Replica promotion: recovery cost vs. WAL suffix length",
        columns=["bulks_since_ckpt", "replayed_records", "replayed_entries",
                 "recovery_ms", "verified"],
        rows=rows,
        notes=[
            "Recovery = checkpoint image + WAL suffix over the "
            "interconnect, then deterministic redo replay; cost grows "
            "with the un-checkpointed suffix.",
            "verified = promoted state diffed byte-identical against "
            "the shard's last durable state.",
        ],
    )


#: Registry for the CI perf-trajectory lane (see repro.bench.harness).
FIGURES = {
    "durability_overhead": durability_overhead,
    "failover_recovery": failover_recovery,
}
