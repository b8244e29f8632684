"""GPUTx reproduction: high-throughput bulk transaction execution on a
simulated GPU.

Reproduces He & Yu, "High-Throughput Transaction Executions on Graphics
Processors", PVLDB 4(5), 2011. See docs/ARCHITECTURE.md for the
system inventory and docs/BENCHMARKS.md for the reproduced figures.

Quick start::

    from repro import GPUTx
    from repro.workloads import tpcb

    db = tpcb.build_database(scale_factor=4)
    engine = GPUTx(db, procedures=tpcb.PROCEDURES)
    engine.submit_many(tpcb.generate_transactions(db, n=4000, seed=7))
    report = engine.run_bulk(strategy="kset")
    print(f"{report.throughput_ktps:.1f} ktps")
"""

from repro.cluster.coordinator import FailoverController
from repro.cluster.durability.failover import DurabilityConfig, RecoveryReport
from repro.cluster.elastic import (
    ElasticConfig,
    ElasticController,
    HotShardDetector,
    HotShardReport,
    MigrationPlan,
    MigrationReport,
    ShardMigrator,
)
from repro.cluster.pipeline import (
    PipelinedRunReport,
    PipelineScheduler,
    run_pipelined,
)
from repro.cluster.router import HashShardRouter, RangeShardRouter, ShardRouter
from repro.cluster.runtime import ClusterExecutionResult, ClusterTx
from repro.config import ClusterOptions
from repro.core.backends import EngineOptions
from repro.core.chooser import ChooserThresholds
from repro.core.engine import ArrivalReport, GPUTx
from repro.core.executor import ExecutionResult
from repro.core.procedure import Access, ProcedureRegistry, TransactionType
from repro.core.txn import Transaction, TransactionPool, TxnResult
from repro.cpu.engine import CpuEngine, CpuExecutionResult
from repro.errors import (
    ClusterError,
    ConfigError,
    DeadlockError,
    DurabilityError,
    ExecutionError,
    RecoveryError,
    ReproError,
    SchemaError,
    ServeError,
    ShardFailure,
    StorageError,
)
# NOTE: the convenience function ``repro.serve.serve`` is deliberately
# not re-exported here -- binding the name ``serve`` on the package
# would shadow the ``repro.serve`` submodule attribute and break
# ``import repro.serve`` users.
from repro.serve import (
    AdaptiveBulkFormer,
    AdmissionController,
    Arrival,
    ArrivalStream,
    FixedBulkFormer,
    LatencySummary,
    ServeReport,
    ServeRuntime,
    SLOConfig,
)
from repro.scenarios import (
    Scenario,
    ScenarioRun,
    TenantSpec,
    VerificationReport,
    run_scenario,
    verify_scenario,
)
from repro.scenarios import all_scenarios as all_scenarios
from repro.scenarios import names as scenario_names
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.telemetry import TelemetrySession
# The telemetry session context manager, under a package-level name
# that cannot shadow the ``repro.telemetry`` submodule attribute.
from repro.telemetry import session as telemetry_session
from repro import workloads

__version__ = "1.0.0"

__all__ = [
    "ArrivalReport",
    "GPUTx",
    "ClusterTx",
    "ClusterExecutionResult",
    "ClusterError",
    "ClusterOptions",
    "DurabilityConfig",
    "DurabilityError",
    "ElasticConfig",
    "ElasticController",
    "HotShardDetector",
    "HotShardReport",
    "MigrationPlan",
    "MigrationReport",
    "ShardMigrator",
    "FailoverController",
    "RecoveryError",
    "RecoveryReport",
    "ShardFailure",
    "ShardRouter",
    "HashShardRouter",
    "RangeShardRouter",
    "PipelineScheduler",
    "PipelinedRunReport",
    "run_pipelined",
    "ChooserThresholds",
    "EngineOptions",
    "ExecutionResult",
    "Access",
    "ProcedureRegistry",
    "TransactionType",
    "Transaction",
    "TransactionPool",
    "TxnResult",
    "CpuEngine",
    "CpuExecutionResult",
    "ConfigError",
    "DeadlockError",
    "ExecutionError",
    "ReproError",
    "SchemaError",
    "ServeError",
    "StorageError",
    "AdaptiveBulkFormer",
    "AdmissionController",
    "Arrival",
    "ArrivalStream",
    "FixedBulkFormer",
    "LatencySummary",
    "SLOConfig",
    "ServeReport",
    "ServeRuntime",
    "Scenario",
    "ScenarioRun",
    "TenantSpec",
    "VerificationReport",
    "all_scenarios",
    "run_scenario",
    "scenario_names",
    "verify_scenario",
    "Database",
    "StoreAdapter",
    "ColumnDef",
    "DataType",
    "TableSchema",
    "TelemetrySession",
    "telemetry_session",
    "workloads",
    "__version__",
]

# ``REPRO_TRACE=1`` traces any repro-importing process (examples,
# benches, scripts) and writes a Chrome trace at exit -- no per-caller
# wiring needed. A no-op unless the environment asks for it.
from repro.telemetry import install_from_env as _telemetry_install_from_env

_telemetry_install_from_env()
