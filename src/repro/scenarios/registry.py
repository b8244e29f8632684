"""Declarative multi-tenant scenario registry.

A :class:`Scenario` is a *description*, not a run: which workload, how
many shards, which tenants (each with an admission quota and optionally
a p95 SLO), what arrival shape each tenant offers, and which faults to
inject mid-run (shard kills through the
:class:`~repro.cluster.coordinator.FailoverController`, forced range
migrations through the live-migration machinery). The runner
(:mod:`repro.scenarios.runner`) turns a scenario into a
:class:`~repro.cluster.runtime.ClusterTx` +
:class:`~repro.serve.runtime.ServeRuntime` execution; the verifiers
(:mod:`repro.scenarios.verify`) assert Definition-1 equivalence against
the serial oracle, per-tenant quota/SLO isolation, and byte-identical
recovery after the injected faults -- so every registered scenario
doubles as an end-to-end correctness test.

Scenarios register by name; ``python -m repro scenarios list|run|verify``
is the front door. The three seed scenarios live in
:mod:`repro.scenarios.seeds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, check_int
from repro.serve.stream import Arrival
from repro.workloads.base import TxnSpec

#: Serve mode drives an arrival stream through admission + the adaptive
#: bulk former; blocks mode executes pre-formed bulks directly (the
#: blockchain block-execution model: one block = one conflict-graph
#: bulk).
MODES = ("serve", "blocks")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's admission quota and latency expectations."""

    name: str
    #: Most pending (admitted-but-unexecuted) transactions the tenant
    #: may hold; overflow is shed as backpressure.
    quota: int
    #: End-to-end p95 target, seconds. ``None`` = no SLO assertion
    #: (e.g. a deliberately saturating aggressor).
    slo_p95_s: Optional[float] = None
    #: The verifier asserts this tenant *was* shed (it offered more
    #: than its quota admits) -- the aggressor side of the isolation
    #: contract.
    expect_shed: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if self.quota < 1:
            raise ConfigError(f"tenant {self.name!r} quota must be >= 1")
        if self.slo_p95_s is not None and self.slo_p95_s <= 0:
            raise ConfigError(
                f"tenant {self.name!r} slo_p95_s must be positive"
            )


@dataclass(frozen=True)
class ShardKill:
    """Kill one shard at a (bulk, wave) point mid-run.

    Scheduled through :meth:`FailoverController.schedule_kill`;
    requires the scenario to run durable (WAL + checkpoints +
    replicas), since that is what recovery replays from.
    """

    shard: int
    at_bulk: int
    wave: int = 0

    def __post_init__(self) -> None:
        for name in ("shard", "at_bulk", "wave"):
            value = check_int(f"ShardKill {name}", getattr(self, name), 0)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ForcedMigration:
    """Force a live range move ``[key_lo, key_hi)`` src -> dst.

    ``at_bulk=0`` lands at the first wave boundary (the mid-bulk
    requeue path); later bulks are applied as the runner counts bulk
    dispatches. Requires ``router='range'``.
    """

    src: int
    dst: int
    key_lo: int
    key_hi: int
    at_bulk: int = 0

    def __post_init__(self) -> None:
        for name in ("src", "dst", "key_lo", "key_hi", "at_bulk"):
            value = check_int(
                f"ForcedMigration {name}", getattr(self, name),
                0 if name == "at_bulk" else None,
            )
            object.__setattr__(self, name, value)
        if self.src == self.dst:
            raise ConfigError("ForcedMigration src and dst must differ")
        if self.key_lo >= self.key_hi:
            raise ConfigError("ForcedMigration needs key_lo < key_hi")


FaultSpec = Union[ShardKill, ForcedMigration]


@dataclass
class ScenarioSetup:
    """What a scenario's ``setup`` callable materialises for one run."""

    #: Freshly built database (never shared between runs: the runner
    #: partitions it into shards and the oracle replays into it).
    db: object
    procedures: Sequence[object]
    #: Serve mode: tenant-tagged arrivals, nondecreasing submit times.
    arrivals: Optional[List[Arrival]] = None
    #: Blocks mode: pre-formed bulks of (type_name, params) specs.
    blocks: Optional[List[List[TxnSpec]]] = None


@dataclass(frozen=True)
class Scenario:
    """A declarative multi-tenant serving scenario."""

    name: str
    description: str
    #: Workload family label (shown by ``scenarios list``).
    workload: str
    #: ``setup(n, seed) -> ScenarioSetup`` builds a fresh database and
    #: the (scaled) workload for one run.
    setup: Callable[[int, int], ScenarioSetup]
    mode: str = "serve"
    #: Workload size at ``scale=1.0``.
    n_txns: int = 1600
    n_shards: int = 4
    router: str = "range"
    tenants: Tuple[TenantSpec, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    #: Run with WAL + checkpoints + replicas (required by kills).
    durable: bool = True
    #: Bulk former config (serve mode).
    target_p95_s: float = 0.05
    min_bulk: int = 8
    max_bulk: int = 2048
    #: Global admission cap. Keep it >= the sum of tenant quotas so the
    #: quota -- not the shared buffer -- is what isolates tenants.
    max_pending: int = 1 << 14
    max_pending_per_shard: Optional[int] = None
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        if self.mode not in MODES:
            raise ConfigError(
                f"unknown scenario mode {self.mode!r}; expected one of "
                f"{MODES}"
            )
        if self.n_txns < 1:
            raise ConfigError("n_txns must be >= 1")
        if self.n_shards < 2:
            raise ConfigError("scenarios run sharded: n_shards must be >= 2")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {self.name!r}")
        kills = [f for f in self.faults if isinstance(f, ShardKill)]
        if kills and not self.durable:
            raise ConfigError(
                f"scenario {self.name!r} injects shard kills but is not "
                "durable: recovery needs WAL + checkpoints + replicas"
            )
        migrations = [
            f for f in self.faults if isinstance(f, ForcedMigration)
        ]
        if migrations and self.router != "range":
            raise ConfigError(
                f"scenario {self.name!r} forces migrations but uses "
                f"router={self.router!r}: live migration splits a range "
                "table"
            )
        for fault in kills:
            if fault.shard >= self.n_shards:
                raise ConfigError(
                    f"scenario {self.name!r} kills shard {fault.shard} "
                    f"but has only {self.n_shards} shards"
                )

    @property
    def quotas(self) -> Dict[str, int]:
        return {t.name: t.quota for t in self.tenants}

    @property
    def kills(self) -> Tuple[ShardKill, ...]:
        return tuple(
            f for f in self.faults if isinstance(f, ShardKill)
        )

    @property
    def migrations(self) -> Tuple[ForcedMigration, ...]:
        return tuple(
            f for f in self.faults if isinstance(f, ForcedMigration)
        )


_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry; duplicate names are an error."""
    if scenario.name in _REGISTRY:
        raise ConfigError(
            f"scenario {scenario.name!r} is already registered"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister(name: str) -> None:
    """Remove a scenario (tests); unknown names are an error."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown scenario {name!r}")
    del _REGISTRY[name]


def get(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; registered: {names()}"
        ) from None


def names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, in name order."""
    return [_REGISTRY[name] for name in names()]
