"""Exception hierarchy for the GPUTx reproduction.

Every error raised by the library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still distinguishing the common cases.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A table/column definition is invalid or violated."""


class StorageError(ReproError):
    """A storage-level operation failed (bad row id, full buffer, ...)."""


class CatalogError(ReproError):
    """Unknown table, duplicate table, or invalid catalog operation."""


class IndexError_(ReproError):
    """An index lookup/maintenance operation failed.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``ReproIndexError`` from the package
    root.
    """


class ProcedureError(ReproError):
    """A stored procedure is malformed or was invoked incorrectly."""


class RegistrationError(ProcedureError):
    """Registering a transaction type with the engine failed."""


class ExecutionError(ReproError):
    """A bulk execution failed in a way that is not a transaction abort."""


class DeadlockError(ExecutionError):
    """The SIMT engine detected that no thread can make progress.

    Raised by the basic (non-counter) spin-lock TPL variant, which --
    exactly as Appendix C of the paper warns -- can deadlock. The
    counter-based lock keyed by T-dependency ranks never deadlocks.
    """


class KernelTimeoutError(ExecutionError):
    """A simulated kernel exceeded the configured round budget."""


class RecoveryError(ReproError):
    """Log-based recovery could not roll back an aborted transaction."""


class ConfigError(ReproError):
    """An engine/simulator configuration value is out of range."""


def check_int(name: str, value: Any, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int``: any integral type but ``bool`` (a NumPy
    integer is normalised), at least ``minimum`` when one is given.
    Anything else -- a float, a NaN, a string, ``True`` -- raises
    :class:`ConfigError` naming ``name``."""
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be an int{bound}, got {value!r}")
    return int(value)


def check_real(name: str, value: Any, *, finite: bool = False) -> float:
    """``value`` as a positive ``float``: any real type but ``bool``,
    and infinite only when ``finite`` is false. ``not value > 0``, not
    ``value <= 0``: a NaN must fail (every comparison against it is
    false). Anything else -- zero, a string, ``True`` -- raises
    :class:`ConfigError` naming ``name``."""
    if (
        not isinstance(value, numbers.Real)
        or isinstance(value, bool)
        or not value > 0
        or (finite and value == math.inf)
    ):
        bound = "positive finite" if finite else "positive"
        raise ConfigError(f"{name} must be a {bound} number, got {value!r}")
    return float(value)


class ClusterError(ReproError):
    """The sharded cluster runtime hit a routing or partitioning failure."""


class ShardFailure(ClusterError):
    """A shard's device is down (killed by failure injection).

    Raised when anything touches a dead shard's engine or store
    adapter before the shard has been recovered by replica promotion.
    """


class DurabilityError(ReproError):
    """WAL/checkpoint/replica bookkeeping was used incorrectly."""


class ServeError(ReproError):
    """The online ingest runtime was misused (e.g. an arrival stream
    whose submit times go backwards)."""
