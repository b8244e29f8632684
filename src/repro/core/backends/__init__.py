"""Execution backends: interpreted vs. vectorized wave execution.

See :mod:`repro.core.backends.base` for the backend contract, and
``docs/ARCHITECTURE.md`` for where backends sit in the layer map.
:class:`EngineOptions` names one of the two backends in
:data:`BACKENDS`; ``GPUTx`` builds it as ``BACKENDS[options.backend]()``.
A backend takes no options of its own.
"""

from dataclasses import dataclass
from typing import Dict, Type

from repro.core.backends.base import InterpretedBackend  # noqa: F401
from repro.core.backends.vectorized import VectorizedBackend  # noqa: F401
from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "EngineOptions",
    "InterpretedBackend",
    "VectorizedBackend",
]

#: Backend name -> class; each is constructed with no arguments.
BACKENDS: Dict[str, Type[InterpretedBackend]] = {
    "interpreted": InterpretedBackend,
    "vectorized": VectorizedBackend,
}


@dataclass(frozen=True)
class EngineOptions:
    """Engine-level execution options (strategy-independent).

    ``backend`` selects the execution backend by its :data:`BACKENDS`
    name. ``strict_vector`` has no effect: the vectorized backend runs
    every launch itself, so there is no fallback left to forbid. It
    stays a checked bool only because existing callers still pass it.
    """

    backend: str = "interpreted"
    strict_vector: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        if not isinstance(self.strict_vector, bool):
            raise ConfigError(
                f"strict_vector must be a bool, not {self.strict_vector!r}"
            )
