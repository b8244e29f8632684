"""Cross-layer metrics registry: counters, gauges, exact histograms.

One :class:`MetricsRegistry` per telemetry session; every layer
(engine, cluster, durability, serve) records into it under stable
metric names with free-form labels (``waves_executed{strategy,
backend}``, ``admission_sheds``, ``shard_queue_depth{shard}``,
``wal_bytes`` ...). The registry is plain dictionaries -- zero
dependencies, deterministic snapshots.

This module is *the* percentile implementation of the repository:
:class:`Histogram` keeps every observation as a packed column of
doubles (simulation-scale series, not production firehoses) and
:func:`summarize` computes linear-interpolation percentiles exactly.
:mod:`repro.serve.metrics`' ``LatencySummary`` goes through the same
function, so the serving layer's p50/p95/p99 and a trace's metrics
snapshot can never disagree about what a percentile means.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

LabelKey = Tuple[Tuple[str, str], ...]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]).

    The single shared implementation -- ``repro.serve.metrics``
    re-exports it and :class:`Histogram` delegates to it.
    """
    if len(values) == 0:  # not truthiness: ndarrays are accepted
        return 0.0
    return sorted_percentile(sorted(values), q)


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` of a non-empty list or ndarray already in
    ascending order, so several quantiles can share one sort."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo]) * (1.0 - frac) + float(ordered[hi]) * frac


def _column(values: Sequence[float], name: str = "") -> np.ndarray:
    """``values`` as a flat float64 array; NaN is not an observation."""
    column = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if np.isnan(column).any():
        raise ValueError(f"{name}: NaN is not a valid observation")
    return column


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``count/sum/mean/p50/p95/p99/max`` of a float column (ndarray,
    ``array('d')`` or list) with one sort.

    ``sum`` (and so ``mean``) adds left to right in the order given,
    exactly as ``sum(list)`` does -- ``np.sum`` is pairwise and
    differs in the last bits. An empty column summarises to zeros; a
    NaN raises ``ValueError`` (every recording path's guard).
    """
    column = _column(values)
    n = len(column)
    ordered = np.sort(column) if n else np.zeros(1)  # no samples: all zeros
    total = sum(column.tolist(), 0.0)
    return {
        "count": n,
        "sum": total,
        "mean": total / max(n, 1),
        "p50": sorted_percentile(ordered, 50.0),
        "p95": sorted_percentile(ordered, 95.0),
        "p99": sorted_percentile(ordered, 99.0),
        "max": float(ordered[-1]),
    }


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Shared naming/label plumbing of the three metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def _check_amount(self, value: Any) -> float:
        number = float(value)
        if number != number:  # NaN guard
            raise ValueError(f"{self.name}: NaN is not a valid observation")
        return number


class _Scalar(_Metric):
    """One float per label combination: the state and the read side a
    counter and a gauge share (they differ only in how it moves)."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[LabelKey, float] = {}

    def value(self, **labels: Any) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Counter(_Scalar):
    """Monotone event counter, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        amount = self._check_amount(amount)
        if amount < 0:
            raise ValueError(f"{self.name}: counters only move forward")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    @property
    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._series.values())


class Gauge(_Scalar):
    """Point-in-time value (queue depth, conflict rate, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._series[_label_key(labels)] = self._check_amount(value)


class Histogram(_Metric):
    """Exact-sample histogram with shared percentile math.

    Each labelled series is one packed ``array('d')`` column in
    observation order; :meth:`observe_many` appends a whole array to
    it with one copy.
    """

    kind = "histogram"

    def __init__(self, name: str = "", help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[LabelKey, array] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._series.setdefault(_label_key(labels), array("d")).append(
            self._check_amount(value)
        )

    def observe_many(self, values: Sequence[float], **labels: Any) -> None:
        """Record every value of a sequence or ndarray, in order."""
        self._series.setdefault(_label_key(labels), array("d")).frombytes(
            _column(values, self.name).tobytes()
        )

    def values(self, **labels: Any) -> List[float]:
        return list(self._series.get(_label_key(labels), ()))

    def count(self, **labels: Any) -> int:
        return len(self._series.get(_label_key(labels), ()))

    def percentile(self, q: float, **labels: Any) -> float:
        return percentile(self._series.get(_label_key(labels), ()), q)

    def summary(self, **labels: Any) -> Dict[str, float]:
        """:func:`summarize` of one labelled series (zeros when empty)."""
        return summarize(self._series.get(_label_key(labels), ()))

    def series(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), **self.summary(**dict(key))}
            for key in sorted(self._series)
        ]


class MetricsRegistry:
    """Get-or-create registry keyed by metric name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot of every metric, sorted and stable."""
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            bucket = {
                "counter": "counters",
                "gauge": "gauges",
                "histogram": "histograms",
            }[metric.kind]
            out[bucket][name] = {
                "help": metric.help,
                "series": metric.series(),  # type: ignore[attr-defined]
            }
        return out
