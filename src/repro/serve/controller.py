"""Bulk formers: when to cut the next bulk, and how big.

The tension is the paper's Figure 9 trade-off made operational. Bigger
bulks amortise kernel launch and k-set generation overhead (higher
throughput, Figure 4), but every queued transaction waits for the cut
and then for the whole bulk, so latency grows with bulk size. A server
with a latency SLO has to pick the largest bulk that still meets it --
and keep re-picking as the workload drifts.

Two formers share one interface:

* :class:`FixedBulkFormer` -- cut at a constant target size (or when
  the oldest queued transaction has waited ``max_form_wait_s``). The
  baseline, and what ``simulate_arrivals``' fixed interval amounts to.
* :class:`AdaptiveBulkFormer` -- closed-loop sizing against an
  :class:`SLOConfig`. Each executed bulk feeds the chooser-keyed
  :class:`~repro.core.chooser.StrategyFeedback` service model
  (``seconds ~= fixed + per_txn * size``); the controller proposes the
  largest size whose predicted service time fits the SLO's service
  budget, then tempers the proposal with AIMD feedback on *observed*
  end-to-end p95: breach -> multiplicative backoff, headroom ->
  additive growth. Everything clamps to ``[min_bulk, max_bulk]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.chooser import StrategyFeedback
from repro.errors import ConfigError, check_int, check_real

#: Share of the latency budget granted to bulk *service* (execution +
#: transfer); the rest covers queue wait while the bulk forms.
SERVICE_FRACTION = 0.5
#: Backoff multiplier on a service-driven p95 breach.
DECREASE_FACTOR = 0.5
#: Additive growth (in transactions) when p95 has headroom.
INCREASE_STEP = 64
#: Multiplicative growth while draining a backlog (a p95 breach whose
#: cause is queue wait, not service time): bigger bulks drain faster,
#: so the controller ramps aggressively.
DRAIN_GROWTH = 2.0


@dataclass(frozen=True)
class SLOConfig:
    """Latency-vs-throughput target of the online server."""

    #: End-to-end p95 latency target (queue wait + service), seconds.
    target_p95_s: float = 0.05
    #: Bulk size bounds the controller may never leave.
    min_bulk: int = 32
    max_bulk: int = 8192
    #: Longest the oldest queued transaction may wait for a cut.
    #: Defaults to the queue share of the latency budget.
    max_form_wait_s: Optional[float] = None

    def __post_init__(self) -> None:
        fields = {
            "target_p95_s": check_real("target_p95_s", self.target_p95_s),
            "min_bulk": check_int("min_bulk", self.min_bulk),
            "max_bulk": check_int("max_bulk", self.max_bulk),
        }
        if self.max_form_wait_s is not None:
            fields["max_form_wait_s"] = check_real(
                "max_form_wait_s", self.max_form_wait_s
            )
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if self.min_bulk < 1 or self.max_bulk < self.min_bulk:
            raise ConfigError("need 1 <= min_bulk <= max_bulk")

    @property
    def service_budget_s(self) -> float:
        return self.target_p95_s * SERVICE_FRACTION

    @property
    def form_wait_s(self) -> float:
        if self.max_form_wait_s is not None:
            return self.max_form_wait_s
        return self.target_p95_s * (1.0 - SERVICE_FRACTION)


class BulkFormer:
    """Interface the serve loop drives."""

    name = "base"

    @property
    def max_form_wait_s(self) -> float:
        raise NotImplementedError

    def target_size(self) -> int:
        """Bulk size the next cut should aim for."""
        raise NotImplementedError

    def observe(
        self,
        *,
        size: int,
        strategy: str,
        service_s: float,
        p95_total_s: float,
    ) -> None:
        """Feed back one executed bulk's outcome (no-op by default)."""


class FixedBulkFormer(BulkFormer):
    """Constant target size -- the non-adaptive baseline."""

    name = "fixed"

    def __init__(self, size: int, *, max_form_wait_s: float = 0.05) -> None:
        self._size = check_int("bulk size", size, 1)
        self._wait = check_real("max_form_wait_s", max_form_wait_s)

    @property
    def max_form_wait_s(self) -> float:
        return self._wait

    def target_size(self) -> int:
        return self._size


class AdaptiveBulkFormer(BulkFormer):
    """SLO-driven closed-loop bulk sizing."""

    name = "adaptive"

    def __init__(self, slo: Optional[SLOConfig] = None) -> None:
        self.slo = slo or SLOConfig()
        #: Per-strategy service model, keyed like the engine's chooser:
        #: the strategy Algorithm 1 picked for a bulk determines which
        #: curve the observation updates.
        self.feedback = StrategyFeedback()
        #: AIMD ceiling; starts at min_bulk so the first bulks are
        #: cheap probes that seed the service model.
        self._aimd = float(self.slo.min_bulk)
        self._target = self.slo.min_bulk
        self._draining = False

    @property
    def max_form_wait_s(self) -> float:
        return self.slo.form_wait_s

    def target_size(self) -> int:
        return self._target

    def observe(
        self,
        *,
        size: int,
        strategy: str,
        service_s: float,
        p95_total_s: float,
    ) -> None:
        slo = self.slo
        self.feedback.observe(strategy, size, service_s)
        # AIMD on the observed end-to-end p95 -- but a breach has two
        # causes with opposite cures. If the bulk's own service time
        # blew the service budget, the bulk was too big: back off
        # multiplicatively. If service was fine, the breach is queue
        # wait (a backlog): bigger bulks drain it faster, so growing
        # -- not shrinking -- restores the SLO.
        self._draining = False
        if p95_total_s > slo.target_p95_s:
            if service_s > slo.service_budget_s:
                self._aimd = max(
                    float(slo.min_bulk), self._aimd * DECREASE_FACTOR
                )
            else:
                self._draining = True
                self._aimd = min(
                    float(slo.max_bulk), self._aimd * DRAIN_GROWTH
                )
        else:
            self._aimd = min(
                float(slo.max_bulk), self._aimd + INCREASE_STEP
            )
        # Model proposal: largest bulk whose predicted service time
        # fits the service share of the latency budget.
        self._target = self._combine(strategy)

    def _combine(self, strategy: str) -> int:
        """Model proposal capped by the AIMD ceiling, clamped to SLO
        bounds.

        While draining a backlog the proposal cap is waived: service
        time has headroom by construction (the breach was
        queue-driven), and the early service model -- fit from a few
        small probe bulks -- systematically overestimates per-txn cost
        on launch-overhead-dominated workloads, which would strangle
        the ramp exactly when throughput matters most.
        """
        slo = self.slo
        ceiling = int(self._aimd)
        if self._draining:
            target = ceiling
        else:
            proposal = self.feedback.size_for_budget(
                strategy, slo.service_budget_s, slo.min_bulk, slo.max_bulk
            )
            target = ceiling if proposal is None else min(proposal, ceiling)
        return max(slo.min_bulk, min(slo.max_bulk, target))
