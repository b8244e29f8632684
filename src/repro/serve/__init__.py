"""Online ingest runtime: streaming admission + adaptive bulk forming.

Turns an open-ended arrival stream into well-sized bulks for a
:class:`~repro.core.engine.GPUTx` or
:class:`~repro.cluster.runtime.ClusterTx` backend, under a latency
SLO. See :mod:`repro.serve.runtime` for the architecture.
"""

from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.controller import (
    AdaptiveBulkFormer,
    BulkFormer,
    FixedBulkFormer,
    SLOConfig,
)
from repro.serve.metrics import (
    BulkLatency,
    LatencySummary,
    Percentiles,
    percentile,
    tenant_summaries,
)
from repro.serve.runtime import BulkTrace, ServeReport, ServeRuntime, serve
from repro.serve.stream import Arrival, ArrivalStream

__all__ = [
    "AdaptiveBulkFormer",
    "AdmissionController",
    "AdmissionStats",
    "Arrival",
    "ArrivalStream",
    "BulkFormer",
    "BulkLatency",
    "BulkTrace",
    "FixedBulkFormer",
    "LatencySummary",
    "Percentiles",
    "ServeReport",
    "ServeRuntime",
    "SLOConfig",
    "percentile",
    "serve",
    "tenant_summaries",
]
