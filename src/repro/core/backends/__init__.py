"""Execution backends: interpreted vs. vectorized wave execution.

See :mod:`repro.core.backends.base` for the backend contract, and
``docs/ARCHITECTURE.md`` for where backends sit in the layer map.
:class:`EngineOptions` names one of the two backends in
:data:`BACKENDS`; ``GPUTx`` builds it as
``BACKENDS[options.backend](options)``.
"""

import os
from dataclasses import dataclass
from typing import Dict, Optional, Type

from repro.core.backends.base import InterpretedBackend  # noqa: F401
from repro.core.backends.vectorized import VectorizedBackend  # noqa: F401
from repro.errors import ConfigError

__all__ = [
    "BACKENDS",
    "EngineOptions",
    "InterpretedBackend",
    "VectorizedBackend",
]

#: Backend name -> class; each is constructed from the engine options.
BACKENDS: Dict[str, Type[InterpretedBackend]] = {
    "interpreted": InterpretedBackend,
    "vectorized": VectorizedBackend,
}


def _env_strict_vector() -> bool:
    """The ``REPRO_STRICT_VECTOR`` environment default.

    CI's strict lane exports ``REPRO_STRICT_VECTOR=1`` to turn every
    silent interpreter fallback in the vectorized backend into an
    error; empty, ``0``, and ``false`` (any case) leave it off.
    """
    raw = os.environ.get("REPRO_STRICT_VECTOR", "")
    return raw.strip().lower() not in ("", "0", "false")


@dataclass(frozen=True)
class EngineOptions:
    """Engine-level execution options (strategy-independent).

    ``backend`` selects the execution backend by its :data:`BACKENDS`
    name. ``strict_vector`` turns the vectorized
    backend's silent per-wave fallback into an error -- for tests and
    benchmarks that must know vectorization actually happened. Its
    default (``None``) resolves from the ``REPRO_STRICT_VECTOR``
    environment variable, so a CI lane can arm strictness repo-wide;
    an explicit ``False`` stays off regardless of the environment.
    """

    backend: str = "interpreted"
    strict_vector: Optional[bool] = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown execution backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        if self.strict_vector is None:
            object.__setattr__(self, "strict_vector", _env_strict_vector())
        elif not isinstance(self.strict_vector, bool):
            raise ConfigError(
                f"strict_vector must be None or a bool, not "
                f"{self.strict_vector!r}"
            )
