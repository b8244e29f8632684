"""Scenario runner: declarative :class:`Scenario` -> one executed run.

Builds the sharded cluster (durable when the scenario says so),
schedules the declared shard kills on the
:class:`~repro.cluster.coordinator.FailoverController`, injects forced
range migrations as bulk boundaries pass, then drives either

* **serve mode**: the tenant-tagged arrival stream through an
  :class:`~repro.serve.admission.AdmissionController` configured with
  the scenario's per-tenant quotas and an
  :class:`~repro.serve.controller.AdaptiveBulkFormer` sized by its SLO;
* **blocks mode**: each pre-formed block as one bulk through
  ``ClusterTx.execute_bulk`` (the blockchain block-execution model).

Every run records the admitted transactions in admission order -- the
replay input the verifiers feed the serial oracle -- and returns a
:class:`ScenarioRun` with per-tenant latency summaries and the fault
outcomes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.durability.failover import DurabilityConfig
from repro.cluster.elastic import MigrationPlan, MigrationReport
from repro.cluster.runtime import ClusterExecutionResult, ClusterTx
from repro.config import ClusterOptions
from repro.core.txn import Transaction
from repro.errors import ConfigError
from repro.scenarios.registry import (
    ForcedMigration,
    Scenario,
    ScenarioSetup,
    ShardKill,
    get,
)
from repro.serve.admission import AdmissionController
from repro.serve.controller import AdaptiveBulkFormer, SLOConfig
from repro.serve.metrics import LatencySummary
from repro.serve.runtime import ServeReport, ServeRuntime

#: Environment switch the CI smoke lane sets: shrinks the default run
#: scale so every registered scenario (plus its verifier reruns) stays
#: seconds-cheap, in the spirit of ``REPRO_BENCH_SMOKE``.
SMOKE_ENV = "REPRO_SCENARIO_SMOKE"
_SMOKE_SCALE = 1.0 / 16.0

#: Fault-selection values accepted by :func:`run_scenario`.
FAULT_MODES = ("all", "migrations", "none")


def default_scale() -> float:
    """1.0, or the smoke scale when :data:`SMOKE_ENV` is set."""
    return _SMOKE_SCALE if os.environ.get(SMOKE_ENV) else 1.0


@dataclass
class ScenarioRun:
    """Everything one scenario execution produced."""

    scenario: str
    mode: str
    #: Workload size and seed actually used (after scaling) -- the
    #: verifiers rebuild the oracle database from these.
    n: int
    seed: int
    executed: int = 0
    committed: int = 0
    aborted: int = 0
    #: Admitted transactions in admission (= timestamp) order.
    admitted: List[Transaction] = field(default_factory=list)
    #: Serve-mode report (None in blocks mode).
    serve: Optional[ServeReport] = None
    #: Per-tenant latency summaries (serve mode).
    tenants: Dict[str, LatencySummary] = field(default_factory=dict)
    #: Blocks-mode per-bulk results.
    results: List[ClusterExecutionResult] = field(default_factory=list)
    #: The cluster the run executed on (its shards hold final state).
    cluster: Optional[ClusterTx] = None
    #: Fault outcomes observed.
    kills_injected: int = 0
    migrations: List[MigrationReport] = field(default_factory=list)
    #: Simulated seconds the cluster spent executing.
    busy_s: float = 0.0

    @property
    def logical_state(self) -> Dict[str, List[Tuple[Any, ...]]]:
        assert self.cluster is not None
        return self.cluster.logical_state()


class _MigrationInjectingEngine:
    """ClusterTx proxy that requests forced migrations on schedule.

    The serve loop owns the bulk cadence, so the runner cannot call
    ``request_migration`` "at bulk k" itself; this proxy counts
    ``execute_bulk`` dispatches and queues each due migration right
    before the dispatch it targets (the move lands at the next wave
    boundary, the mid-bulk requeue path).
    """

    def __init__(
        self, cluster: ClusterTx, migrations: Sequence[ForcedMigration]
    ) -> None:
        self._cluster = cluster
        self._due = sorted(migrations, key=lambda m: m.at_bulk)
        self._bulk_n = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cluster, name)

    def execute_bulk(self, batch: Any, **kwargs: Any) -> Any:
        while self._due and self._due[0].at_bulk <= self._bulk_n:
            m = self._due.pop(0)
            self._cluster.request_migration(
                MigrationPlan(
                    src=m.src, dst=m.dst, key_lo=m.key_lo, key_hi=m.key_hi
                )
            )
        self._bulk_n += 1
        return self._cluster.execute_bulk(batch, **kwargs)


def _build_cluster(scenario: Scenario, setup: ScenarioSetup) -> ClusterTx:
    durability = DurabilityConfig() if scenario.durable else None
    return ClusterTx(
        setup.db,
        procedures=setup.procedures,
        n_shards=scenario.n_shards,
        router=scenario.router,
        options=ClusterOptions(durability=durability),
    )


def run_scenario(
    scenario: Union[Scenario, str],
    *,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    faults: str = "all",
    extra_kills: Sequence[ShardKill] = (),
    unbounded_admission: bool = False,
    quotas: bool = True,
) -> ScenarioRun:
    """Execute one scenario and return its :class:`ScenarioRun`.

    ``faults`` selects which *declared* faults fire: ``"all"``,
    ``"migrations"`` (skip the declared kills -- the fault-free twin a
    recovery check diffs against), or ``"none"``. ``extra_kills`` adds
    kills on top (the random kill points of the recovery property
    suite). ``unbounded_admission`` lifts the global cap and the tenant
    quotas so both runs of a recovery diff admit identical workloads;
    shedding decisions would otherwise legitimately diverge after a
    fault perturbs queue depths. ``quotas=False`` keeps the global
    bounds but drops the per-tenant quotas -- the no-isolation twin
    the SCENARIO-1 bench compares against.
    """
    if isinstance(scenario, str):
        scenario = get(scenario)
    if faults not in FAULT_MODES:
        raise ConfigError(
            f"unknown faults mode {faults!r}; expected one of {FAULT_MODES}"
        )
    scale = default_scale() if scale is None else scale
    if scale <= 0:
        raise ConfigError("scale must be positive")
    seed = scenario.seed if seed is None else seed
    n = max(16, int(round(scenario.n_txns * scale)))
    setup = scenario.setup(n, seed)
    cluster = _build_cluster(scenario, setup)

    kills: List[ShardKill] = list(extra_kills)
    if faults == "all":
        kills.extend(scenario.kills)
    migrations = (
        list(scenario.migrations) if faults in ("all", "migrations") else []
    )
    if kills and cluster.failover is None:
        raise ConfigError(
            f"scenario {scenario.name!r} cannot inject kills without "
            "durability"
        )
    for kill in kills:
        if kill.shard >= scenario.n_shards:
            raise ConfigError(
                f"kill targets shard {kill.shard} of {scenario.n_shards}"
            )
        cluster.failover.schedule_kill(
            kill.shard, bulk=kill.at_bulk, wave=kill.wave
        )

    run = ScenarioRun(
        scenario=scenario.name,
        mode=scenario.mode,
        n=n,
        seed=seed,
        cluster=cluster,
        kills_injected=len(kills),
    )
    if scenario.mode == "serve":
        _run_serve(scenario, setup, cluster, migrations, run,
                   unbounded_admission, quotas)
    else:
        _run_blocks(scenario, setup, cluster, migrations, run)
    return run


def _run_serve(
    scenario: Scenario,
    setup: ScenarioSetup,
    cluster: ClusterTx,
    migrations: Sequence[ForcedMigration],
    run: ScenarioRun,
    unbounded_admission: bool,
    quotas: bool,
) -> None:
    if setup.arrivals is None:
        raise ConfigError(
            f"scenario {scenario.name!r} is serve-mode but its setup "
            "produced no arrivals"
        )
    engine: Any = cluster
    if migrations:
        engine = _MigrationInjectingEngine(cluster, migrations)
    if unbounded_admission:
        admission = AdmissionController(
            max_pending=1 << 30, record_admitted=True
        )
    else:
        admission = AdmissionController(
            max_pending=scenario.max_pending,
            max_pending_per_shard=scenario.max_pending_per_shard,
            router=cluster.router if scenario.max_pending_per_shard else None,
            registry=(
                cluster.registry if scenario.max_pending_per_shard else None
            ),
            tenant_quotas=(scenario.quotas or None) if quotas else None,
            record_admitted=True,
        )
    former = AdaptiveBulkFormer(
        SLOConfig(
            target_p95_s=scenario.target_p95_s,
            min_bulk=scenario.min_bulk,
            max_bulk=scenario.max_bulk,
        )
    )
    runtime = ServeRuntime(engine, former=former, admission=admission)
    report = runtime.run(setup.arrivals)
    run.serve = report
    run.tenants = dict(report.tenants)
    run.admitted = list(admission.admitted_log)
    run.executed = report.executed
    run.committed = report.committed
    run.aborted = report.aborted
    run.migrations = list(report.migrations)
    run.busy_s = report.busy_s


def _run_blocks(
    scenario: Scenario,
    setup: ScenarioSetup,
    cluster: ClusterTx,
    migrations: Sequence[ForcedMigration],
    run: ScenarioRun,
) -> None:
    if setup.blocks is None:
        raise ConfigError(
            f"scenario {scenario.name!r} is blocks-mode but its setup "
            "produced no blocks"
        )
    due = sorted(migrations, key=lambda m: m.at_bulk)
    # Count *blocks*, not bulk dispatches: a mid-bulk shard kill makes
    # the failover requeue in-flight transactions, so one block can
    # drain as several bulks -- keying moves on the dispatch count
    # would slide them relative to the workload in exactly the faulted
    # runs the recovery verifier diffs.
    block_n = 0
    for block in setup.blocks:
        # Forced moves land *between* blocks here: nothing is in
        # flight, so the migration needs no requeue and both runs of a
        # recovery diff see identical block compositions.
        while due and due[0].at_bulk <= block_n:
            m = due.pop(0)
            report = cluster.migrate(
                MigrationPlan(
                    src=m.src, dst=m.dst, key_lo=m.key_lo, key_hi=m.key_hi
                )
            )
            run.migrations.append(report)
        for name, params in block:
            run.admitted.append(cluster.submit(name, params))
        while len(cluster.pool):
            result = cluster.execute_bulk(cluster.pool.take())
            run.results.append(result)
            run.executed += len(result.results)
            run.committed += result.committed
            run.aborted += sum(
                1 for r in result.results if not r.committed
            )
            run.busy_s += result.seconds
        block_n += 1
    # A move scheduled past the last block still fires (the scenario
    # promised it), so recovery diffs compare identical topologies.
    for m in due:
        report = cluster.migrate(
            MigrationPlan(
                src=m.src, dst=m.dst, key_lo=m.key_lo, key_hi=m.key_hi
            )
        )
        run.migrations.append(report)
