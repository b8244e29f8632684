"""Elastic shards under a skew shift (beyond the paper: online
rebalancing of the sharded runtime).

One series, in the style of the figure reproductions:

* ``cluster_elastic_skew_shift`` -- a SmallBank cluster serves a
  two-phase arrival stream whose zipfian hot range *moves* between
  phases (the hot-set drift every static partitioning eventually
  loses to). The static cluster keeps its initial even range split;
  the elastic cluster runs the :class:`~repro.cluster.elastic.
  ElasticController` between bulks -- hot-shard detection from the
  serve loop's per-shard admission depths, then a live range split
  via checkpoint fork + WAL tail toward the coolest peer. Compared
  head to head on the same arrivals: end-to-end p95 latency and
  admission shed rate.

The point mirrors the paper's own skew story (Figure 6: K-SET
throughput degrades monotonically with zipfian ``theta``): skew the
bulk model cannot remove can still be *spread* -- a hot range split
across two shards halves the wave the slowest shard serializes on,
which is exactly the cluster's clock.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bench.harness import FigureResult, scaled
from repro.cluster.elastic import ElasticConfig
from repro.cluster.runtime import ClusterTx
from repro.config import ClusterOptions
from repro.serve import (
    AdaptiveBulkFormer,
    AdmissionController,
    ServeReport,
    ServeRuntime,
    SLOConfig,
)
from repro.workloads import smallbank
from repro.workloads.base import (
    TimedTxnSpec,
    make_rng,
    poisson_arrival_times,
    timed_specs,
    zipfian_items,
)

#: Workload sizes (pre-scale); kept modest so the simulator stays fast.
_N_TXNS = 4_000
_SMALLBANK_SF = 1  # 1000 customers -> 4 range shards of 250 keys
_N_SHARDS = 4
#: Offered load: past what one shard can drain alone, under what the
#: fleet drains together -- the regime where spreading a hot range
#: changes the outcome.
_RATE_TPS = 150_000.0
#: Share of arrivals drawn from the hot range (the rest are uniform
#: background over the full key space).
_HOT_FRACTION = 0.9
#: Zipfian skew *within* the hot range (ranks are scattered across
#: the range, so the range is hot without collapsing to one key).
_HOT_THETA = 0.6
#: The skew shift: phase 1 hammers shard 2's range, phase 2 moves the
#: hot set onto shard 0's range.
_PHASE_WINDOWS: Tuple[Tuple[int, int], ...] = ((500, 750), (0, 250))
#: Admission bounds -- the per-shard cap is what a hot shard overruns.
_MAX_PENDING = 1 << 14
_MAX_PENDING_PER_SHARD = 192
_SLO_P95_S = 0.005


def _skew_shift_arrivals(
    n: int, rate_tps: float, seed: int
) -> List[TimedTxnSpec]:
    """Single-customer SmallBank ops whose hot range moves mid-run."""
    rng = make_rng(seed)
    key_space = 1000 * _SMALLBANK_SF
    phases = len(_PHASE_WINDOWS)
    per_phase = n // phases
    specs = []
    for lo, hi in _PHASE_WINDOWS:
        width = hi - lo
        # Scatter the zipfian ranks over the window: the *range* is
        # hot, not one key, so a midpoint split moves real load.
        scatter = rng.permutation(width)
        ranks = zipfian_items(rng, width, _HOT_THETA, per_phase)
        for rank in ranks:
            if rng.random() < _HOT_FRACTION:
                customer = lo + int(scatter[int(rank)])
            else:
                customer = int(rng.integers(0, key_space))
            kind = rng.random()
            if kind < 0.45:
                specs.append(
                    (
                        "smallbank_deposit_checking",
                        (customer, float(rng.integers(1, 100))),
                    )
                )
            elif kind < 0.70:
                specs.append(
                    (
                        "smallbank_transact_savings",
                        (customer, float(rng.integers(1, 200))),
                    )
                )
            elif kind < 0.85:
                specs.append(
                    (
                        "smallbank_write_check",
                        (customer, float(rng.integers(1, 150))),
                    )
                )
            else:
                specs.append(("smallbank_balance", (customer,)))
    times = poisson_arrival_times(make_rng(seed + 1), len(specs), rate_tps)
    return timed_specs(specs, times)


def _serve_skew_shift(
    arrivals: List[TimedTxnSpec], elastic: Optional[ElasticConfig]
) -> ServeReport:
    db = smallbank.build_database(_SMALLBANK_SF)
    cluster = ClusterTx(
        db,
        procedures=smallbank.PROCEDURES,
        n_shards=_N_SHARDS,
        router="range",
        options=ClusterOptions(elastic=elastic),
    )
    slo = SLOConfig(target_p95_s=_SLO_P95_S, min_bulk=16, max_bulk=512)
    runtime = ServeRuntime(
        cluster,
        former=AdaptiveBulkFormer(slo),
        admission=AdmissionController(
            _MAX_PENDING,
            max_pending_per_shard=_MAX_PENDING_PER_SHARD,
            router=cluster.router,
            registry=cluster.registry,
        ),
    )
    return runtime.run(arrivals)


def cluster_elastic_skew_shift() -> FigureResult:
    """Static vs. elastic range sharding under a moving hot range."""
    arrivals = _skew_shift_arrivals(scaled(_N_TXNS), _RATE_TPS, seed=43)
    rows = []
    p95 = {}
    shed = {}
    for mode, config in (
        ("static", None),
        (
            "elastic",
            ElasticConfig(min_queue_depth=24, max_migrations=4),
        ),
    ):
        report = _serve_skew_shift(arrivals, config)
        p95[mode] = report.latency["total"].p95
        shed[mode] = report.latency.shed_rate
        rows.append(
            (
                mode,
                report.executed,
                len(report.migrations),
                sum(m.moved_rows for m in report.migrations),
                report.sustained_ktps,
                report.latency["total"].p95 * 1e3,
                report.latency.shed_rate,
            )
        )
    return FigureResult(
        figure_id="CLUSTER-5",
        title="Elastic shards: static vs. live-migrated range split "
        "under a moving zipfian hot range (SmallBank)",
        columns=["mode", "executed", "migrations", "moved_rows",
                 "sustained_ktps", "p95_ms", "shed_rate"],
        rows=rows,
        # Gate on the latency win: how much end-to-end p95 the live
        # split buys over the static range table on the same arrivals.
        headline=(
            "p95_speedup",
            p95["static"] / p95["elastic"] if p95["elastic"] > 0 else 1.0,
        ),
        notes=[
            f"Two phases of {_RATE_TPS / 1e3:.0f} ktps arrivals, "
            f"{_HOT_FRACTION:.0%} drawn zipfian "
            f"(theta={_HOT_THETA}) from a hot range that moves "
            f"{_PHASE_WINDOWS[0]} -> {_PHASE_WINDOWS[1]} at half-time.",
            "The elastic controller detects the runaway admission "
            "queue from the serve loop's per-shard depths and splits "
            "the hot shard's range toward the coolest peer (checkpoint fork + "
            "WAL tail + atomic router swap, between bulks); the "
            "static cluster serializes the hot range on one shard "
            "and sheds at its per-shard admission cap.",
        ],
    )


#: Registry for the CI perf-trajectory lane (see repro.bench.harness).
FIGURES = {
    "cluster_elastic_skew_shift": cluster_elastic_skew_shift,
}
