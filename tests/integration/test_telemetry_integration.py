"""End-to-end telemetry: traces that reconcile with the engine's clock.

The acceptance bar for the telemetry layer: a TM1 serving run and a
cluster run with a mid-run shard failover each produce a schema-valid
Chrome trace whose per-phase totals agree with the engine's own
``TimeBreakdown`` accounting to float tolerance. The trace is a
*view* of the simulated clock, never a second clock that can drift.
"""

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro import ClusterOptions, ClusterTx, DurabilityConfig, GPUTx
from repro.serve import AdmissionController, ServeRuntime
from repro.telemetry.report import format_report, layers, phase_totals
from repro.workloads import tm1
from repro.workloads.base import (
    make_rng,
    poisson_arrival_times,
    timed_specs,
)

#: Relative tolerance for trace-vs-breakdown reconciliation: exported
#: timestamps round-trip through microseconds, so totals agree to the
#: us<->s conversion ulp, far inside 1e-6.
RECONCILE_REL = 1e-6


def _tm1_arrivals(db, n, rate_tps, seed):
    specs = tm1.generate_transactions(db, n, seed=seed)
    times = poisson_arrival_times(make_rng(seed + 1), len(specs), rate_tps)
    return timed_specs(specs, times)


class TestServeTrace:
    def test_tm1_serve_trace_reconciles(self):
        db = tm1.build_database(1, subscribers_per_sf=200)
        engine = GPUTx(db, procedures=tm1.PROCEDURES)
        runtime = ServeRuntime(engine)
        arrivals = _tm1_arrivals(db, 300, 150_000.0, seed=9)

        with telemetry.session() as tel:
            report = runtime.run(arrivals)
        trace = tel.trace()

        assert telemetry.validate_chrome_trace(trace) == []
        assert {"engine", "serve"} <= set(layers(trace))

        # Engine-layer phase totals == the serving report's aggregated
        # TimeBreakdown, phase by phase.
        totals = phase_totals(trace, layer="engine")
        for phase, seconds in report.breakdown.phases.items():
            if seconds:
                assert totals[phase] == pytest.approx(
                    seconds, rel=RECONCILE_REL
                ), phase

        # The serve layer narrates the bulk former's side: every bulk
        # gets a forming phase and a serve_bulk span.
        serve_totals = phase_totals(trace, layer="serve")
        assert "forming" in serve_totals
        n_serve_bulks = sum(
            1
            for e in trace["traceEvents"]
            if e.get("ph") == "B" and e["name"].startswith("serve_bulk-")
        )
        assert n_serve_bulks == len(report.bulks)

        # Metrics snapshot agrees with the admission controller.
        metrics = trace["otherData"]["metrics"]
        offered = metrics["counters"]["admission_offered"]["series"]
        assert sum(s["value"] for s in offered) == report.admission.offered

        # The human-facing report renders without blowing up.
        text = format_report(trace)
        assert "execution" in text

    def test_shed_counts_surface_in_summary(self):
        db = tm1.build_database(1, subscribers_per_sf=200)
        engine = GPUTx(db, procedures=tm1.PROCEDURES)
        runtime = ServeRuntime(
            engine, admission=AdmissionController(max_pending=16)
        )
        arrivals = _tm1_arrivals(db, 300, 10_000_000.0, seed=21)
        report = runtime.run(arrivals)
        rejected = report.admission.rejected
        assert rejected > 0
        assert report.latency.shed == rejected
        # Single-engine rejections carry no home shard: the split only
        # fills in sharded mode.
        assert report.admission.rejected_by_shard == {}
        assert 0.0 < report.latency.shed_rate < 1.0


class TestClusterFailoverTrace:
    N_SHARDS = 2
    N_BULKS = 4
    BULK_TXNS = 40

    def _run_traced_cluster(self):
        db = tm1.build_database(1, subscribers_per_sf=200)
        cluster = ClusterTx(
            db,
            procedures=tm1.CLUSTER_PROCEDURES,
            n_shards=self.N_SHARDS,
            options=ClusterOptions(
                durability=DurabilityConfig(
                    checkpoint_interval=2, n_replicas=1
                )
            ),
        )
        cluster.failover.schedule_kill(0, bulk=1, wave=0)
        bulks = [
            tm1.generate_cluster_transactions(
                db,
                self.BULK_TXNS,
                shard_of=cluster.router.shard_of_key,
                cross_shard_fraction=0.2,
                seed=500 + k,
            )
            for k in range(self.N_BULKS)
        ]
        results = []
        with telemetry.session() as tel:
            for bulk in bulks:
                cluster.submit_many(bulk)
                while len(cluster.pool):
                    results.append(cluster.run_bulk(strategy="kset"))
        return tel, results

    def test_failover_trace_reconciles(self):
        tel, results = self._run_traced_cluster()
        trace = tel.trace()
        assert telemetry.validate_chrome_trace(trace) == []
        assert {"cluster", "shard"} <= set(layers(trace))

        reports = [f for r in results for f in r.failovers]
        assert len(reports) == 1

        # Cluster-layer phase totals == the summed per-bulk
        # TimeBreakdowns -- including the recovery phase, whose span
        # carries the restore/replay decomposition.
        expected = {}
        for result in results:
            for phase, seconds in result.breakdown.phases.items():
                expected[phase] = expected.get(phase, 0.0) + seconds
        totals = phase_totals(trace, layer="cluster")
        for phase, seconds in expected.items():
            if seconds:
                assert totals[phase] == pytest.approx(
                    seconds, rel=RECONCILE_REL
                ), phase
        assert totals["recovery"] == pytest.approx(
            reports[0].seconds, rel=RECONCILE_REL
        )

        # The recovery span's children split restore from replay.
        events = trace["traceEvents"]
        child_names = {
            e["name"]
            for e in events
            if e.get("ph") == "B"
            and e["name"] in ("checkpoint_restore", "wal_replay")
        }
        assert child_names == {"checkpoint_restore", "wal_replay"}

        # Durability counters flowed from the WAL/checkpoint path.
        metrics = trace["otherData"]["metrics"]
        wal_bytes = metrics["counters"]["wal_bytes"]["series"]
        assert sum(s["value"] for s in wal_bytes) > 0
        assert metrics["counters"]["checkpoint_bytes"]["series"]
        failovers = metrics["counters"]["shard_failovers"]["series"]
        assert sum(s["value"] for s in failovers) == 1
