"""Rule-based execution strategy choice -- Algorithm 1 (Appendix D).

The three strategies trade off differently: K-SET has little runtime
overhead but needs a wide 0-set to fill the GPU; PART needs
single-partition transactions and suffers on deep graphs less than TPL
does on contended locks; TPL is fully general but pays spin-lock
overhead proportional to contention.

Algorithm 1 verbatim:

1. obtain ``w0`` (size of the 0-set);
2. if ``w0 >= w0_bar``: return **K-SET**;
3. else, with ``c`` cross-partition transactions and depth ``d``:
   if ``c <= c_bar`` or ``d >= d_bar``: return **PART**;
4. else return **TPL**.

The ``w0_bar`` default follows the paper's guidance that "executing a
k-set of smaller than M transactions is likely to underutilize the GPU
computation resource (M is the number of processors on the GPU)", with
a multiplier for latency hiding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.profiler import BulkProfile
from repro.gpu.spec import C1060, GPUSpec

STRATEGY_TPL = "tpl"
STRATEGY_PART = "part"
STRATEGY_KSET = "kset"


@dataclass(frozen=True)
class ChooserThresholds:
    """Tunable thresholds of Algorithm 1."""

    #: Minimum 0-set width for K-SET to fully utilise the GPU.
    w0_bar: int = C1060.total_cores * 4
    #: Maximum tolerable cross-partition transactions for PART.
    c_bar: int = 0
    #: Depth beyond which lock contention makes TPL hopeless.
    d_bar: int = 64

    @classmethod
    def for_spec(cls, spec: GPUSpec, occupancy: int = 4) -> "ChooserThresholds":
        return cls(w0_bar=spec.total_cores * occupancy)


def choose_strategy(
    profile: BulkProfile,
    thresholds: ChooserThresholds | None = None,
) -> str:
    """Algorithm 1: pick "kset", "part", or "tpl" for this bulk."""
    t = thresholds or ChooserThresholds()
    if profile.w0 >= t.w0_bar:
        return STRATEGY_KSET
    if profile.cross_partition <= t.c_bar or profile.depth >= t.d_bar:
        return STRATEGY_PART
    return STRATEGY_TPL


@dataclass
class _StrategyModel:
    """Decaying moments of (bulk size, bulk seconds) observations."""

    n: int = 0
    size: float = 0.0
    seconds: float = 0.0
    size_sq: float = 0.0
    size_seconds: float = 0.0

    def observe(self, size: int, seconds: float, alpha: float) -> None:
        if self.n == 0:
            self.size = float(size)
            self.seconds = seconds
            self.size_sq = float(size) ** 2
            self.size_seconds = float(size) * seconds
        else:
            keep = 1.0 - alpha
            self.size = keep * self.size + alpha * size
            self.seconds = keep * self.seconds + alpha * seconds
            self.size_sq = keep * self.size_sq + alpha * size * size
            self.size_seconds = keep * self.size_seconds + alpha * size * seconds
        self.n += 1

    def fit(self) -> "tuple[float, float]":
        """Least-squares (fixed_s, per_txn_s) over the decayed moments.

        With effectively one observed size the variance degenerates;
        fall back to a through-the-origin rate (no fixed cost), which
        under-estimates small bulks but never divides by noise.
        """
        var = self.size_sq - self.size * self.size
        if var > max(1.0, 0.01 * self.size * self.size):
            slope = (self.size_seconds - self.size * self.seconds) / var
            slope = max(slope, 0.0)
            fixed = max(self.seconds - slope * self.size, 0.0)
            return fixed, slope
        if self.size > 0:
            return 0.0, self.seconds / self.size
        return 0.0, 0.0


@dataclass
class StrategyFeedback:
    """Online per-strategy service-time model (closes the serve loop).

    Algorithm 1 predicts *which* strategy wins; it says nothing about
    *how long* the bulk will take, which is what an SLO-driven bulk
    former needs. This accumulator learns an affine model
    ``seconds(bulk) ~= fixed_s + per_txn_s * size`` per strategy from
    the engine's observed wave times (exponentially decayed, so the
    model tracks workload drift), and answers the former's question:
    the largest bulk a strategy can execute within a time budget.
    """

    alpha: float = 0.3
    _models: Dict[str, _StrategyModel] = field(default_factory=dict)

    def observe(self, strategy: str, size: int, seconds: float) -> None:
        """Record one executed bulk's (size, service seconds)."""
        if size <= 0 or seconds < 0.0:
            return
        model = self._models.setdefault(strategy, _StrategyModel())
        model.observe(size, seconds, self.alpha)

    def observations(self, strategy: str) -> int:
        model = self._models.get(strategy)
        return model.n if model else 0

    def predict_seconds(self, strategy: str, size: int) -> Optional[float]:
        """Expected service seconds of a ``size``-transaction bulk."""
        model = self._models.get(strategy)
        if model is None or model.n == 0:
            return None
        fixed, per_txn = model.fit()
        return fixed + per_txn * size

    def size_for_budget(
        self, strategy: str, budget_s: float, lo: int, hi: int
    ) -> Optional[int]:
        """Largest bulk size in ``[lo, hi]`` predicted to fit the budget.

        Returns ``lo`` when even the smallest bulk overshoots (the
        former still has to make progress), and ``None`` when no
        observation of ``strategy`` exists yet.
        """
        model = self._models.get(strategy)
        if model is None or model.n == 0:
            return None
        fixed, per_txn = model.fit()
        if per_txn <= 0.0:
            return hi
        size = int((budget_s - fixed) / per_txn)
        return max(lo, min(hi, size))
