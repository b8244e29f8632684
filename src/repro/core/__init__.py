"""GPUTx core: bulk execution model, T-dependency graph, strategies."""

from repro.core.chooser import (
    STRATEGY_KSET,
    STRATEGY_PART,
    STRATEGY_TPL,
    ChooserThresholds,
    choose_strategy,
)
from repro.core.engine import ArrivalReport, GPUTx
from repro.core.executor import ExecutionResult, StrategyExecutor
from repro.core.kset import (
    IncrementalKSetExtractor,
    RankResult,
    compute_ranks,
)
from repro.core.oparray import OpArray
from repro.core.procedure import (
    Access,
    ProcedureRegistry,
    TransactionType,
)
from repro.core.profiler import BulkProfile, BulkProfiler
from repro.core.tdg import TDependencyGraph
from repro.core.txn import (
    ResultColumns, ResultPool, Transaction, TransactionPool, TxnResult,
)

__all__ = [
    "STRATEGY_KSET",
    "STRATEGY_PART",
    "STRATEGY_TPL",
    "ChooserThresholds",
    "choose_strategy",
    "ArrivalReport",
    "GPUTx",
    "ExecutionResult",
    "StrategyExecutor",
    "IncrementalKSetExtractor",
    "RankResult",
    "compute_ranks",
    "OpArray",
    "Access",
    "ProcedureRegistry",
    "TransactionType",
    "BulkProfile",
    "BulkProfiler",
    "TDependencyGraph",
    "ResultColumns",
    "ResultPool",
    "Transaction",
    "TransactionPool",
    "TxnResult",
]
