"""The five host-clock workloads.

Each workload class builds its database, inputs and engine in
``__init__`` (the set-up the benchmark times as ``setup_s``) and runs
its timed region in :meth:`run`. Sizes are the ISSUE-12 sizes times a
``scale``; every generator is driven by ``seed`` and the program only
ever sees generated inputs.

Every engine is pinned to ``EngineOptions(backend="vectorized",
strict_vector=True)``: the vectorized backend is the path host
performance work targets, pinning it keeps a later default flip from
reading as a gain, and a silent interpreter fallback becomes an error
(a failed operation). ``backend="interpreted"`` builds the untimed twin.

All loops are closed on the host clock: arrivals carry simulated
submit times and the host never waits, so the latency the system
promises is simulated (``sim_p99_ms``) and its host cost is
``host_tps``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    AdaptiveBulkFormer,
    AdmissionController,
    ClusterOptions,
    ClusterTx,
    CpuEngine,
    DurabilityConfig,
    EngineOptions,
    GPUTx,
    MigrationPlan,
    ServeRuntime,
    SLOConfig,
    Transaction,
)
from repro.workloads import smallbank, tm1, tpcb, tpcc
from repro.workloads.base import make_rng, poisson_arrival_times, timed_specs

Spec = Tuple[str, tuple]


def engine_options(backend: str) -> EngineOptions:
    return EngineOptions(backend=backend, strict_vector=backend == "vectorized")


def scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def digest(state: Dict[str, list]) -> str:
    """Short stable hash of a ``logical_state()``/``physical_state()``."""
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(repr(state[name]).encode())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    """What one timed region did, on both clocks."""

    #: Arrivals offered or specs submitted.
    attempted: int
    #: Arrivals rejected by admission control.
    shed: int
    #: Transactions that returned a result inside the timed region.
    executed: int
    #: Host seconds of the timed region.
    host_s: float
    #: Simulated throughput (serve: sustained; else executed / busy).
    sim_ktps: float
    sim_p50_ms: float
    sim_p99_ms: float
    #: Host seconds per named part (bulk workloads) as (txns, seconds).
    parts: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: Host seconds inside ``ClusterTx.recover_shard`` (cluster_recover).
    recover_host_s: float = 0.0
    #: ``RecoveryReport.verified`` of every promotion, in order.
    recoveries_verified: List[bool] = field(default_factory=list)
    #: Formed-bulk count and mean size (serve workloads).
    bulks: int = 0
    mean_bulk: float = 0.0


@dataclass
class OracleCase:
    """One Definition-1 check: ``state`` must equal a serial replay of
    ``specs`` (txn ids 0..n-1 in order) on ``fresh_db()``."""

    label: str
    fresh_db: Callable[[], Any]
    procedures: Sequence[Any]
    specs: Sequence[Spec]
    #: ``txn_id -> committed`` of the run under test.
    committed: Callable[[int], Optional[bool]]
    logical_state: Callable[[], Dict[str, list]]


def closed_loop(
    engine: Any, bulks: Sequence[Sequence[Spec]], strategy: str
) -> Tuple[int, float, np.ndarray]:
    """Submit each bulk and drain the pool; returns (executed,
    simulated busy seconds, per-transaction simulated response times
    with submit = the bulk's first dispatch)."""
    executed = 0
    busy = 0.0
    responses: List[np.ndarray] = []
    for bulk in bulks:
        engine.submit_many(bulk)
        clock = 0.0
        while len(engine.pool):
            result = engine.run_bulk(strategy=strategy)
            clock += result.seconds
            n = len(result.results)
            executed += n
            responses.append(np.full(n, clock))
        busy += clock
    return executed, busy, np.concatenate(responses)


def closed_outcome(
    attempted: int, host_s: float, executed: int, busy: float,
    responses: np.ndarray, **extra: Any,
) -> Outcome:
    p50, p99 = np.percentile(responses, [50, 99])
    return Outcome(
        attempted=attempted,
        shed=0,
        executed=executed,
        host_s=host_s,
        sim_ktps=executed / busy / 1e3,
        sim_p50_ms=float(p50) * 1e3,
        sim_p99_ms=float(p99) * 1e3,
        **extra,
    )


def serve_outcome(attempted: int, host_s: float, report: Any) -> Outcome:
    total = report.latency["total"]
    return Outcome(
        attempted=attempted,
        shed=report.admission.rejected,
        executed=report.executed,
        host_s=host_s,
        sim_ktps=report.sustained_ktps,
        sim_p50_ms=total.p50 * 1e3,
        sim_p99_ms=total.p99 * 1e3,
        bulks=len(report.bulks),
        mean_bulk=report.mean_bulk,
    )


_SLO = dict(target_p95_s=0.005, min_bulk=24, max_bulk=4096)
_TM1_SF = 2


class ServeOverload:
    """HOST-1: the front-to-back serving path with wide bulks, where
    per-transaction object work (admission, pool, rank, latency
    records) dominates and per-launch cost does not."""

    name = "serve_overload"
    specs = 200_000

    def __init__(
        self, seed: int, scale: float, backend: str = "vectorized",
        max_pending: int = 1 << 16,
    ) -> None:
        self.db = tm1.build_database(_TM1_SF)
        self.arrivals = tm1.generate_timed_transactions(
            self.db, scaled(self.specs, scale, 200), rate_tps=2e6,
            pattern="poisson", seed=seed,
        )
        self.engine = GPUTx(
            self.db, procedures=tm1.PROCEDURES,
            options=engine_options(backend),
        )
        self.runtime = ServeRuntime(
            self.engine,
            former=AdaptiveBulkFormer(SLOConfig(**_SLO)),
            admission=AdmissionController(max_pending),
        )

    def run(self) -> Outcome:
        start = time.perf_counter()
        report = self.runtime.run(self.arrivals)
        return serve_outcome(
            len(self.arrivals), time.perf_counter() - start, report
        )

    def engines(self) -> List[GPUTx]:
        return [self.engine]

    def physical_digest(self) -> str:
        return digest(self.db.physical_state())

    def oracle_cases(self) -> List[OracleCase]:
        return [
            OracleCase(
                self.name,
                lambda: tm1.build_database(_TM1_SF),
                tm1.PROCEDURES,
                [(a[0], a[1]) for a in self.arrivals],
                _committed_of(self.engine.results),
                self.db.logical_state,
            )
        ]


class ServeSharded:
    """HOST-2: thousands of ~8-transaction sub-bulks, where the fixed
    cost per ``execute_bulk``, cost replay, WAL append and the walked
    (routed) admission path dominate and kernels barely matter."""

    name = "serve_sharded"
    specs = 30_000

    def __init__(
        self, seed: int, scale: float, backend: str = "vectorized",
        max_pending: int = 1 << 16,
    ) -> None:
        self.source = tm1.build_database(_TM1_SF)
        self.cluster = ClusterTx(
            self.source,
            procedures=tm1.CLUSTER_PROCEDURES,
            n_shards=4,
            router="hash",
            options=ClusterOptions(
                engine=engine_options(backend), durability=DurabilityConfig()
            ),
        )
        specs = tm1.generate_cluster_transactions(
            self.source,
            scaled(self.specs, scale, 200),
            shard_of=self.cluster.router.shard_of_key,
            cross_shard_fraction=0.05,
            seed=seed,
        )
        times = poisson_arrival_times(make_rng(seed + 7), len(specs), 4e5)
        self.arrivals = timed_specs(specs, times)
        self.runtime = ServeRuntime(
            self.cluster,
            former=AdaptiveBulkFormer(SLOConfig(**_SLO)),
            admission=AdmissionController(
                max_pending,
                max_pending_per_shard=1 << 14,
                router=self.cluster.router,
                registry=self.cluster.registry,
            ),
        )

    def run(self) -> Outcome:
        start = time.perf_counter()
        report = self.runtime.run(self.arrivals)
        return serve_outcome(
            len(self.arrivals), time.perf_counter() - start, report
        )

    def engines(self) -> List[GPUTx]:
        return list(self.cluster.shards)

    def physical_digest(self) -> str:
        h = hashlib.sha256()
        for shard in self.cluster.shards:
            h.update(digest(shard.db.physical_state()).encode())
        return h.hexdigest()[:16]

    def oracle_cases(self) -> List[OracleCase]:
        # ClusterTx partitions a copy, so the source is still pristine.
        return [
            OracleCase(
                self.name,
                lambda: self.source,
                tm1.CLUSTER_PROCEDURES,
                [(a[0], a[1]) for a in self.arrivals],
                _committed_of(self.cluster.results),
                self.cluster.logical_state,
            )
        ]


@dataclass
class _Part:
    """One (workload, strategy) leg of a bulk workload."""

    name: str
    strategy: str
    build_db: Callable[[], Any]
    procedures: Sequence[Any]
    generate: Callable[..., List[Spec]]
    n_bulks: int
    bulk_specs: int
    seed: int
    kwargs: Dict[str, Any] = field(default_factory=dict)
    bulks: List[List[Spec]] = field(default_factory=list)
    engine: Optional[GPUTx] = None

    def build(self, backend: str) -> None:
        db = self.build_db()
        self.bulks = [
            self.generate(db, self.bulk_specs, seed=self.seed * 1000 + k,
                          **self.kwargs)
            for k in range(self.n_bulks)
        ]
        self.engine = GPUTx(
            db, procedures=self.procedures, options=engine_options(backend)
        )


class _BulkWorkload:
    """Closed-loop bulk execution over named (workload, strategy) parts."""

    name = ""

    def __init__(self, seed: int, scale: float, backend: str = "vectorized"):
        self.parts = self._parts(seed, scale)
        for part in self.parts:
            part.build(backend)

    def _parts(self, seed: int, scale: float) -> List[_Part]:
        raise NotImplementedError

    def run(self) -> Outcome:
        executed, busy, host_s = 0, 0.0, 0.0
        responses, parts = [], {}
        for part in self.parts:
            start = time.perf_counter()
            n, sim_s, resp = closed_loop(part.engine, part.bulks, part.strategy)
            seconds = time.perf_counter() - start
            parts[part.name] = (n, seconds)
            executed += n
            busy += sim_s
            host_s += seconds
            responses.append(resp)
        return closed_outcome(
            sum(len(b) for p in self.parts for b in p.bulks),
            host_s, executed, busy, np.concatenate(responses), parts=parts,
        )

    def engines(self) -> List[GPUTx]:
        return [part.engine for part in self.parts]

    def physical_digest(self) -> str:
        h = hashlib.sha256()
        for part in self.parts:
            h.update(digest(part.engine.db.physical_state()).encode())
        return h.hexdigest()[:16]

    def oracle_cases(self) -> List[OracleCase]:
        return [
            OracleCase(
                part.name,
                part.build_db,
                part.procedures,
                [spec for bulk in part.bulks for spec in bulk],
                _committed_of(part.engine.results),
                part.engine.db.logical_state,
            )
            for part in self.parts
        ]


class BulkWide(_BulkWorkload):
    """HOST-3, shallow conflict graphs: no serve or cluster layer;
    profile/rank plus a few wide vector launches do the work."""

    name = "bulk_wide"

    def _parts(self, seed: int, scale: float) -> List[_Part]:
        # Lane width is the point, so the bulk count scales and the
        # 16k bulk size stays (below a tenth, the size shrinks too).
        n_bulks = scaled(10, scale)
        n = 16_000 if scale >= 0.1 else scaled(16_000, scale * 10, 100)
        return [
            _Part("tm1-auto", "auto", lambda: tm1.build_database(4),
                  tm1.PROCEDURES, tm1.generate_transactions, n_bulks, n, seed),
            _Part("tpcb-part", "part",
                  lambda: tpcb.build_database(2048, accounts_per_branch=20),
                  tpcb.PROCEDURES, tpcb.generate_transactions, n_bulks, n,
                  seed + 1),
            _Part("smallbank-kset", "kset",
                  lambda: smallbank.build_database(8), smallbank.PROCEDURES,
                  smallbank.generate_transactions, n_bulks, n, seed + 2,
                  {"theta": 0.0}),
        ]


class BulkContended(_BulkWorkload):
    """HOST-3, deep graphs and locks: the same ``core.backends`` layer
    as ``bulk_wide`` used the opposite way -- launch count and
    ``lockstep`` dominate where lane width does not, so a kernel change
    that wins wide and loses narrow shows."""

    name = "bulk_contended"

    def _parts(self, seed: int, scale: float) -> List[_Part]:
        def tpcc_db():
            return tpcc.build_database(16)

        return [
            _Part("smallbank09-kset", "kset",
                  lambda: smallbank.build_database(8), smallbank.PROCEDURES,
                  smallbank.generate_transactions, 1,
                  scaled(16_000, scale, 100), seed, {"theta": 0.9}),
            _Part("tpcc-tpl", "tpl", tpcc_db, tpcc.PROCEDURES,
                  tpcc.generate_transactions, 1, scaled(3_000, scale, 50),
                  seed + 1),
            _Part("tpcc-kset", "kset", tpcc_db, tpcc.PROCEDURES,
                  tpcc.generate_transactions, 1, scaled(4_000, scale, 50),
                  seed + 2),
        ]


class ClusterRecover:
    """Durability, the read side: ``serve_sharded`` writes the WAL and
    this reads it back, so a log-format or checksum change that helps
    one side and costs the other shows."""

    name = "cluster_recover"
    bulk_specs = 4_000
    n_bulks = 12
    kill_from = 8

    def __init__(
        self, seed: int, scale: float, backend: str = "vectorized",
        faults: bool = True,
    ) -> None:
        self.faults = faults
        self.source = tm1.build_database(_TM1_SF)
        self.cluster = ClusterTx(
            self.source,
            procedures=tm1.CLUSTER_PROCEDURES,
            n_shards=4,
            router="range",
            options=ClusterOptions(
                engine=engine_options(backend),
                durability=DurabilityConfig(
                    checkpoint_interval=100, n_replicas=1
                ),
            ),
        )
        # Routing for generation follows the initial range table, so
        # the inputs do not depend on whether the migration happens.
        self.bulks = [
            tm1.generate_cluster_transactions(
                self.source,
                scaled(self.bulk_specs, scale, 100),
                shard_of=self.cluster.router.shard_of_key,
                cross_shard_fraction=0.05,
                seed=seed * 1000 + k,
            )
            for k in range(self.n_bulks + 1)
        ]
        self.recover_host_s = 0.0
        self.recoveries: List[Any] = []
        self.migration: Any = None
        # Σ host seconds inside the public ClusterTx.recover_shard: the
        # auto-failover epilogue calls it, so it is timed at that
        # boundary from here.
        recover = self.cluster.recover_shard

        def timed_recover(shard: int):
            start = time.perf_counter()
            report = recover(shard)
            self.recover_host_s += time.perf_counter() - start
            self.recoveries.append(report)
            return report

        self.cluster.recover_shard = timed_recover

    def run(self) -> Outcome:
        cluster = self.cluster
        start = time.perf_counter()
        executed, busy = 0, 0.0
        responses = []
        for k, bulk in enumerate(self.bulks):
            if self.faults and self.kill_from <= k < self.n_bulks:
                cluster.failover.schedule_kill(
                    k - self.kill_from, bulk=cluster.bulk_seq, wave=0
                )
            if self.faults and k == self.n_bulks:
                lo, hi = cluster.router.ranges_of(0)[0]
                self.migration = cluster.migrate(
                    MigrationPlan(src=0, dst=3, key_lo=(lo + hi) // 2, key_hi=hi)
                )
                busy += self.migration.seconds
            n, sim_s, resp = closed_loop(cluster, [bulk], "auto")
            executed += n
            busy += sim_s
            responses.append(resp)
        host_s = time.perf_counter() - start
        return closed_outcome(
            sum(len(b) for b in self.bulks), host_s, executed, busy,
            np.concatenate(responses),
            recover_host_s=self.recover_host_s,
            recoveries_verified=[r.verified for r in self.recoveries],
        )

    def engines(self) -> List[GPUTx]:
        return list(self.cluster.shards)

    def physical_digest(self) -> str:
        # Migration and promotion change the physical layout by design;
        # the twin comparison is on logical state.
        return digest(self.cluster.logical_state())

    def oracle_cases(self) -> List[OracleCase]:
        return [
            OracleCase(
                self.name,
                lambda: self.source,
                tm1.CLUSTER_PROCEDURES,
                [spec for bulk in self.bulks for spec in bulk],
                _committed_of(self.cluster.results),
                self.cluster.logical_state,
            )
        ]


def _committed_of(results: Any) -> Callable[[int], Optional[bool]]:
    def committed(txn_id: int) -> Optional[bool]:
        result = results.get(txn_id)
        return None if result is None else result.committed

    return committed


WORKLOADS = {
    cls.name: cls
    for cls in (ServeOverload, ServeSharded, BulkWide, BulkContended,
                ClusterRecover)
}

def run_oracle(case: OracleCase) -> int:
    """Definition 1: serial replay in txn-id order. Returns the number
    of mismatched operations; a state mismatch that no single outcome
    explains counts as one."""
    db = case.fresh_db()
    oracle = CpuEngine(db, procedures=case.procedures, num_cores=1)
    serial = oracle.execute(
        [Transaction(i, name, tuple(params))
         for i, (name, params) in enumerate(case.specs)]
    )
    failed = sum(
        1 for r in serial.results if case.committed(r.txn_id) != r.committed
    )
    if db.logical_state() != case.logical_state():
        failed = max(failed, 1)
    return failed
