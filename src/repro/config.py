"""One composable options object for the cluster runtime.

``GPUTx`` is configured by
:class:`~repro.core.backends.EngineOptions`; ``ClusterTx`` by
:class:`ClusterOptions`, which composes the per-shard engine options
with the cluster-level durability, cross-shard commit and elastic
settings into a single frozen value that can be built once, logged,
and handed to the constructor::

    >>> from repro.config import ClusterOptions
    >>> from repro.core.backends import EngineOptions
    >>> opts = ClusterOptions(engine=EngineOptions(backend="vectorized"))
    >>> opts.cross_shard
    'parallel'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.durability.failover import DurabilityConfig
from repro.cluster.elastic import ElasticConfig
from repro.core.backends import EngineOptions
from repro.errors import ConfigError

__all__ = ["ClusterOptions"]

#: Cross-shard commit modes ClusterTx understands: "parallel" is the
#: grouped leader/follower commit, "serial" the serial-leader oracle.
_CROSS_SHARD_MODES = ("parallel", "serial")


@dataclass(frozen=True)
class ClusterOptions:
    """Every ``ClusterTx`` runtime knob, in one composable frozen value.

    ``engine`` configures each shard's execution backend;
    ``durability``, ``cross_shard`` and ``elastic`` are cluster-level.
    """

    engine: EngineOptions = field(default_factory=EngineOptions)
    durability: Optional[DurabilityConfig] = None
    cross_shard: str = "parallel"
    elastic: Optional[ElasticConfig] = None

    def __post_init__(self) -> None:
        if self.cross_shard not in _CROSS_SHARD_MODES:
            raise ConfigError(
                f"unknown cross_shard mode {self.cross_shard!r}; "
                f"expected one of {_CROSS_SHARD_MODES}"
            )
        if not isinstance(self.engine, EngineOptions):
            raise ConfigError(
                "ClusterOptions.engine must be an EngineOptions, got "
                f"{type(self.engine).__name__}"
            )
