"""One import path per name.

``repro`` is the public surface; every other name is imported from the
module that defines it. Eight subpackages used to keep a second copy of
that surface in their ``__init__.py``. They now hold only a docstring,
and nothing may import a non-submodule name through them.
"""

import ast
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Packages whose ``__init__.py`` is a docstring and nothing else.
DOCSTRING_ONLY = (
    "repro.core",
    "repro.core.strategies",
    "repro.cluster",
    "repro.cluster.durability",
    "repro.storage",
    "repro.gpu",
    "repro.cpu",
    "repro.bench",
)

#: Trees whose Python files the import rule covers.
SCANNED = ("src", "tests", "examples", "scripts", "benchmarks")

#: ``repro.__all__``: the public surface, pinned so a change is a
#: deliberate diff.
PUBLIC = [
    "Access", "AdaptiveBulkFormer", "AdmissionController", "Arrival",
    "ArrivalReport", "ArrivalStream", "ChooserThresholds", "ClusterError",
    "ClusterExecutionResult", "ClusterOptions", "ClusterTx", "ColumnDef",
    "ConfigError", "CpuEngine", "CpuExecutionResult", "DataType",
    "Database", "DeadlockError", "DurabilityConfig", "DurabilityError",
    "ElasticConfig", "ElasticController", "EngineOptions", "ExecutionError",
    "ExecutionResult", "FailoverController", "FixedBulkFormer", "GPUTx",
    "HashShardRouter", "HotShardDetector", "HotShardReport",
    "LatencySummary", "MigrationPlan", "MigrationReport",
    "PipelineScheduler", "PipelinedRunReport", "ProcedureRegistry",
    "RangeShardRouter", "RecoveryError", "RecoveryReport", "ReproError",
    "SLOConfig", "Scenario", "ScenarioRun", "SchemaError", "ServeError",
    "ServeReport", "ServeRuntime", "ShardFailure", "ShardMigrator",
    "ShardRouter", "StorageError", "StoreAdapter", "TableSchema",
    "TelemetrySession", "TenantSpec", "Transaction", "TransactionPool",
    "TransactionType", "TxnResult", "VerificationReport", "__version__",
    "all_scenarios", "run_pipelined", "run_scenario", "scenario_names",
    "telemetry_session", "verify_scenario", "workloads",
]


def package_dir(package: str) -> Path:
    return SRC.joinpath(*package.split("."))


def is_submodule(package: str, name: str) -> bool:
    base = package_dir(package) / name
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def module_package(path: Path) -> str:
    """The package a file under ``src/`` belongs to (for relative
    imports); empty outside ``src/``."""
    try:
        rel = path.relative_to(SRC)
    except ValueError:
        return ""
    return ".".join(rel.parent.parts)


def offending_imports(source: str, package: str):
    """(line, package, name) for every ``from package import name`` of
    ``source`` that takes a non-submodule name from a docstring-only
    package. ``package`` resolves the relative imports."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        target = node.module or ""
        if node.level:
            parts = package.split(".")[: len(package.split(".")) + 1 - node.level]
            target = ".".join(parts + ([target] if target else []))
        if target not in DOCSTRING_ONLY:
            continue
        out += [
            (node.lineno, target, alias.name) for alias in node.names
            if not is_submodule(target, alias.name)
        ]
    return out


@pytest.mark.parametrize("package", DOCSTRING_ONLY)
def test_init_holds_only_its_docstring(package):
    init = package_dir(package) / "__init__.py"
    body = ast.parse(init.read_text(encoding="utf-8")).body
    assert len(body) == 1, f"{init}: {len(body)} statements"
    assert isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str) and body[0].value.value.strip()


def test_no_name_is_imported_through_a_docstring_package():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: from {package} import {name}"
        for tree in SCANNED
        for path in sorted((ROOT / tree).rglob("*.py"))
        for line, package, name in offending_imports(
            path.read_text(encoding="utf-8"), module_package(path)
        )
    ]
    assert offenders == []


def test_the_rule_sees_an_offending_import():
    """The scan is not vacuous: absolute and relative re-export imports
    are caught, a submodule import is not."""
    source = (
        "from repro.core import GPUTx\n"
        "from . import engine, TransactionPool\n"
        "from repro.gpu import ops\n"
        "from repro.gpu.simt import SIMTEngine\n"
    )
    assert offending_imports(source, "repro.core") == [
        (1, "repro.core", "GPUTx"), (2, "repro.core", "TransactionPool"),
    ]


def test_public_surface_is_pinned_and_importable():
    assert sorted(repro.__all__) == sorted(PUBLIC)
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert [name for name in PUBLIC if not hasattr(repro, name)] == []
