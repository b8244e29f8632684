"""Cluster-scaling experiments (beyond the paper: multi-GPU sharding).

Three series, in the style of the figure reproductions:

* ``cluster_shard_scaling`` -- throughput of a TM1 bulk vs. shard
  count {1, 2, 4, 8} at 0 % cross-shard work. Scaling is sublinear at
  these bulk sizes for the reason the paper gives for small bulks
  (Figure 4): each shard's sub-bulk underutilises its GPU, and the
  k-set sort's fixed passes (Figure 5's dominant generation share)
  do not shrink with the per-shard bulk.
* ``cluster_cross_shard`` -- throughput vs. the fraction of
  transactions spanning two shards {0, 0.1, 0.3}: every cross-shard
  run forces a barrier and a serial leader pass, so throughput decays
  sharply -- the DiPETrans motivation for minimising cross-shard work.
* ``cluster_parallel_commit`` -- the fix for that ceiling: the
  grouped leader/follower commit (``cross_shard="parallel"``) vs. the
  serial-leader oracle at 0.3 cross-shard fraction, swept over shard
  count {2, 4, 8}. Conflict-aware wave packing coalesces the tiny
  coordinator runs and independent conflict groups execute on their
  home shards in parallel, so cross-shard throughput scales with the
  shard count instead of flatlining. Every row asserts Definition-1
  equivalence against the serial-leader oracle.
* ``cluster_pipeline`` -- double-buffered bulk pipelining on one
  device: PCIe transfer of bulk k+1 overlaps kernel execution of
  bulk k, recovering most of the transfer share of Figure 16.
"""

from __future__ import annotations

from repro.bench.harness import FigureResult, scaled
from repro.cluster.pipeline import run_pipelined
from repro.cluster.runtime import ClusterTx
from repro.config import ClusterOptions
from repro.core.engine import GPUTx
from repro.workloads import micro, tm1

#: Workload sizes (pre-scale); kept modest so the simulator stays fast.
_SCALING_TXNS = 6_000
_SCALING_SF = 4
_CROSS_TXNS = 600
_CROSS_SF = 1
_PARALLEL_FRACTION = 0.3
_PIPELINE_BULKS = 6
_PIPELINE_BULK_SIZE = 400


def cluster_shard_scaling() -> FigureResult:
    """Throughput vs. shard count on a 0%-cross-shard TM1 bulk."""
    db = tm1.build_database(_SCALING_SF)
    specs = tm1.generate_transactions(db, scaled(_SCALING_TXNS), seed=11)
    rows = []
    base_seconds = None
    for n_shards in (1, 2, 4, 8):
        cluster = ClusterTx(db, procedures=tm1.PROCEDURES, n_shards=n_shards)
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="kset")
        if base_seconds is None:
            base_seconds = result.seconds
        rows.append(
            (
                n_shards,
                len(result.results),
                result.seconds * 1e3,
                result.throughput_ktps,
                base_seconds / result.seconds,
                result.utilization,
            )
        )
    return FigureResult(
        figure_id="CLUSTER-1",
        title="ClusterTx: TM1 throughput vs. shard count (0% cross-shard)",
        columns=["shards", "txns", "sim_ms", "ktps", "speedup_vs_1",
                 "utilization"],
        rows=rows,
        notes=[
            "Sublinear scaling: per-shard sub-bulks underutilise each "
            "GPU and the k-set sort's fixed passes dominate generation "
            "(the small-bulk effect of Figures 4/5).",
        ],
    )


def cluster_cross_shard() -> FigureResult:
    """Throughput vs. cross-shard fraction on a 4-shard cluster."""
    rows = []
    for fraction in (0.0, 0.1, 0.3):
        db = tm1.build_database(_CROSS_SF)
        cluster = ClusterTx(db, procedures=tm1.CLUSTER_PROCEDURES, n_shards=4)
        specs = tm1.generate_cluster_transactions(
            db,
            scaled(_CROSS_TXNS),
            shard_of=cluster.router.shard_of_key,
            cross_shard_fraction=fraction,
            seed=11,
        )
        cluster.submit_many(specs)
        result = cluster.run_bulk(strategy="kset")
        coord_share = result.breakdown.fraction("coordinator") + (
            result.breakdown.fraction("sync")
        )
        rows.append(
            (
                fraction,
                len(result.results),
                result.n_cross_shard,
                len(result.waves),
                result.seconds * 1e3,
                result.throughput_ktps,
                coord_share,
            )
        )
    return FigureResult(
        figure_id="CLUSTER-2",
        title="ClusterTx: TM1 throughput vs. cross-shard fraction (4 shards)",
        columns=["cross_fraction", "txns", "cross_txns", "waves", "sim_ms",
                 "ktps", "coordinator_share"],
        rows=rows,
        notes=[
            "Cross-shard work still forces barriers and leader-driven "
            "waves (grouped parallel commit, the default mode), so "
            "throughput decays faster than the fraction itself -- see "
            "CLUSTER-3 for how the grouped commit scales the leader "
            "with shard count.",
        ],
    )


def _run_cross_shard_mode(n_shards: int, mode: str):
    """One CLUSTER-3 cell: a 0.3-cross TM1 bulk under one commit mode."""
    db = tm1.build_database(_CROSS_SF)
    cluster = ClusterTx(
        db,
        procedures=tm1.CLUSTER_PROCEDURES,
        n_shards=n_shards,
        options=ClusterOptions(cross_shard=mode),
    )
    specs = tm1.generate_cluster_transactions(
        db,
        scaled(_CROSS_TXNS),
        shard_of=cluster.router.shard_of_key,
        cross_shard_fraction=_PARALLEL_FRACTION,
        seed=11,
    )
    cluster.submit_many(specs)
    result = cluster.run_bulk(strategy="kset")
    coordinator_seconds = sum(
        wave.seconds for wave in result.waves if wave.kind == "coordinator"
    )
    return result, coordinator_seconds, cluster.logical_state()


def cluster_parallel_commit() -> FigureResult:
    """Grouped parallel commit vs. serial leader, by shard count."""
    rows = []
    for n_shards in (2, 4, 8):
        serial, serial_coord_s, serial_state = _run_cross_shard_mode(
            n_shards, "serial"
        )
        parallel, parallel_coord_s, parallel_state = _run_cross_shard_mode(
            n_shards, "parallel"
        )
        # Definition 1 on every row: the grouped commit must be
        # byte-identical to the serial-leader oracle -- same merged
        # state and the same per-transaction outcomes.
        assert parallel_state == serial_state, (
            f"parallel commit diverged from the serial-leader oracle "
            f"at {n_shards} shards"
        )
        assert [
            (r.txn_id, r.committed, r.abort_reason) for r in parallel.results
        ] == [
            (r.txn_id, r.committed, r.abort_reason) for r in serial.results
        ], f"outcomes diverged from the serial-leader oracle at {n_shards}"
        cross = parallel.n_cross_shard
        serial_cross_ktps = (
            cross / serial_coord_s / 1e3 if serial_coord_s > 0 else 0.0
        )
        parallel_cross_ktps = (
            cross / parallel_coord_s / 1e3 if parallel_coord_s > 0 else 0.0
        )
        rows.append(
            (
                n_shards,
                cross,
                parallel.n_groups,
                sum(
                    1 for w in parallel.waves if w.kind == "coordinator"
                ),
                serial_cross_ktps,
                parallel_cross_ktps,
                (
                    parallel_cross_ktps / serial_cross_ktps
                    if serial_cross_ktps > 0
                    else 1.0
                ),
                serial.seconds / parallel.seconds,
            )
        )
    return FigureResult(
        figure_id="CLUSTER-3",
        title="ClusterTx: parallel cross-shard commit vs. serial leader "
        "(TM1, 0.3 cross fraction)",
        columns=["shards", "cross_txns", "groups", "coord_waves",
                 "serial_cross_ktps", "cross_ktps", "cross_speedup",
                 "bulk_speedup"],
        rows=rows,
        # Gate on the 8-shard grouped cross-shard throughput: the
        # figure's point is that it scales with shards now.
        headline=("cross_ktps", rows[-1][5]),
        notes=[
            "cross_ktps = cross-shard transactions / coordinator-wave "
            "seconds. Conflict-aware packing coalesces coordinator "
            "runs; independent conflict groups execute on their home "
            "shards in parallel (clock = max over lanes + dispatch), "
            "so the leader stops being the scaling ceiling. Every row "
            "asserts Definition-1 equivalence against the serial "
            "oracle.",
        ],
    )


def cluster_pipeline() -> FigureResult:
    """Double-buffered bulk pipelining vs. serial bulk execution."""
    n_tuples = scaled(4_000)
    rows = []
    for depth in (1, 2, 3):
        db = micro.build_database(n_tuples)
        engine = GPUTx(db, procedures=micro.build_procedures(4, x=4))
        bulks = [
            micro.generate_transactions(
                scaled(_PIPELINE_BULK_SIZE),
                n_tuples=n_tuples,
                n_branches=4,
                seed=100 + k,
            )
            for k in range(_PIPELINE_BULKS)
        ]
        report = run_pipelined(engine, bulks, strategy="kset", depth=depth)
        pipe = report.pipeline
        rows.append(
            (
                depth,
                report.executed,
                pipe.serial_seconds * 1e3,
                pipe.pipelined_seconds * 1e3,
                pipe.speedup,
                pipe.exposed_transfer_seconds * 1e3,
            )
        )
    return FigureResult(
        figure_id="CLUSTER-4",
        title="PipelineScheduler: bulk transfer/kernel overlap by depth",
        columns=["depth", "txns", "serial_ms", "pipelined_ms", "speedup",
                 "exposed_transfer_ms"],
        rows=rows,
        notes=[
            "depth = number of device-side signature buffers; 2 is the "
            "classic double buffer. Exposed transfer is the copy time the "
            "pipeline failed to hide behind kernels.",
        ],
    )


#: Registry for the CI perf-trajectory lane (see repro.bench.harness).
FIGURES = {
    "cluster_shard_scaling": cluster_shard_scaling,
    "cluster_cross_shard": cluster_cross_shard,
    "cluster_parallel_commit": cluster_parallel_commit,
    "cluster_pipeline": cluster_pipeline,
}
