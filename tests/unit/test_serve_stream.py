"""Unit tests for arrival streams, the arrival-time generators, and
batched admission (offer_batch == the per-arrival offer loop)."""

import dataclasses

import numpy as np
import pytest

from repro.cluster.router import HashShardRouter
from repro.core.procedure import ProcedureRegistry
from repro.core.txn import TransactionPool
from repro.errors import ConfigError, ServeError
from repro.serve.admission import AdmissionController
from repro.serve.stream import Arrival, ArrivalSlice, ArrivalStream
from repro.workloads import tm1
from tests.conftest import BANK_PROCEDURES, deadline
from repro.workloads.base import (
    bursty_arrival_times,
    diurnal_arrival_times,
    flash_crowd_arrival_times,
    make_rng,
    poisson_arrival_times,
    timed_specs,
    uniform_arrival_times,
)


class TestArrivalStream:
    def test_normalises_triples_and_preserves_order(self):
        stream = ArrivalStream(
            [("deposit", (1, 5), 0.0), ("audit", (2,), 0.5)]
        )
        first = stream.pop()
        assert isinstance(first, Arrival)
        assert first.type_name == "deposit"
        assert first.params == (1, 5)
        assert stream.peek_time() == 0.5
        stream.pop()
        assert stream.exhausted
        assert stream.peek_time() == float("inf")

    def test_pop_on_exhausted_raises(self):
        stream = ArrivalStream([])
        assert stream.exhausted
        with pytest.raises(ServeError):
            stream.pop()

    def test_pop_until_consumes_by_time(self):
        stream = ArrivalStream(
            [("a", (), 0.1), ("b", (), 0.2), ("c", (), 0.9)]
        )
        batch = stream.pop_until(0.5)
        assert [a.type_name for a in batch] == ["a", "b"]
        assert stream.peek_time() == 0.9

    def test_backwards_time_raises(self):
        stream = ArrivalStream([("a", (), 1.0), ("b", (), 0.5)])
        with pytest.raises(ServeError):
            stream.pop()  # advancing past "a" validates "b"

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_submit_time_raises(self, bad):
        """NaN compares false both ways: it passed the order check,
        ``pop_until`` never popped it, and the serve loop spun."""
        with pytest.raises(ServeError, match="finite"):
            ArrivalStream([("a", (), bad)])
        stream = ArrivalStream([("a", (), 0.0), ("b", (), bad)])
        with pytest.raises(ServeError, match="finite"):
            stream.pop()

    def test_pop_until_limit_takes_the_oldest(self):
        stream = ArrivalStream(
            [("a", (), 0.1), ("b", (), 0.2), ("c", (), 0.2), ("d", (), 0.9)]
        )
        assert [a.type_name for a in stream.pop_until(0.5, limit=2)] == ["a", "b"]
        assert [a.type_name for a in stream.pop_until(0.5, limit=5)] == ["c"]
        assert stream.pop_until(0.5, limit=5) == []
        assert stream.peek_time() == 0.9

    @pytest.mark.parametrize("limit", [-1, 1.5, True, "2"])
    def test_pop_until_rejects_a_bad_limit(self, limit):
        """-1 and 1.5 used to pop everything due, True one arrival."""
        stream = ArrivalStream([("a", (), 0.1), ("b", (), 0.2)])
        with pytest.raises(ConfigError, match="limit"):
            stream.pop_until(0.5, limit)
        assert stream.peek_time() == 0.1

    def test_pop_until_rejects_a_nan_clock(self):
        """A NaN clock used to pop nothing, silently."""
        stream = ArrivalStream([("a", (), 0.1)])
        with pytest.raises(ConfigError, match="NaN"):
            stream.pop_until(float("nan"))
        assert [a.type_name for a in stream.pop_until(0.5, limit=0)] == []
        assert [a.type_name for a in stream.pop_until(0.5)] == ["a"]

    def test_pop_until_returns_columns_across_chunks(self, monkeypatch):
        from repro.serve import stream as stream_module

        monkeypatch.setattr(stream_module, "CHUNK", 2)
        stream = ArrivalStream(
            [("a", (1,), 0.1), ("b", [2], 0.2, "t"), Arrival("c", (3,), 0.3)]
        )
        batch = stream.pop_until(0.5)
        assert isinstance(batch, ArrivalSlice)
        assert batch.type_name == ["a", "b", "c"]
        assert batch.params == [(1,), (2,), (3,)]
        assert batch.submit_time == [0.1, 0.2, 0.3]
        assert batch.tenant == ["", "t", ""]
        assert batch[1] == Arrival("b", (2,), 0.2, "t")

    def test_unbounded_generator_is_not_materialised(self):
        def infinite():
            t = 0.0
            while True:
                yield ("tick", (), t)
                t += 1.0

        stream = ArrivalStream(infinite())
        assert stream.pop().submit_time == 0.0
        assert stream.peek_time() == 1.0


class TestArrivalTimes:
    def test_uniform_matches_paper_model(self):
        times = uniform_arrival_times(4, rate_tps=100.0)
        assert np.allclose(times, [0.0, 0.01, 0.02, 0.03])
        with pytest.raises(ValueError):
            uniform_arrival_times(4, rate_tps=0.0)

    def test_poisson_mean_rate_and_monotonicity(self):
        times = poisson_arrival_times(make_rng(3), 4000, rate_tps=1000.0)
        assert np.all(np.diff(times) >= 0)
        # Mean inter-arrival gap ~ 1 ms at 1000 tps.
        assert 0.8e-3 < np.mean(np.diff(times)) < 1.2e-3

    def test_bursty_compresses_each_period(self):
        period, duty = 0.1, 0.25
        times = bursty_arrival_times(
            make_rng(5), 2000, rate_tps=500.0, period_s=period, duty=duty
        )
        assert np.all(np.diff(times) >= 0)
        phases = times % period
        # Every arrival lands in the first `duty` of its period.
        assert np.max(phases) <= period * duty + 1e-9
        with pytest.raises(ValueError):
            bursty_arrival_times(
                make_rng(5), 10, rate_tps=500.0, period_s=period, duty=0.0
            )

    @pytest.mark.parametrize(
        "generate",
        [
            lambda n: uniform_arrival_times(n, rate_tps=100.0),
            lambda n: poisson_arrival_times(make_rng(1), n, rate_tps=100.0),
            lambda n: bursty_arrival_times(
                make_rng(1), n, rate_tps=100.0, period_s=0.1
            ),
            lambda n: diurnal_arrival_times(
                make_rng(1), n, base_rate_tps=50.0, peak_rate_tps=150.0,
                period_s=0.1,
            ),
            lambda n: flash_crowd_arrival_times(
                make_rng(1), n, base_rate_tps=50.0, flash_at_s=0.01,
                flash_rate_tps=500.0, flash_duration_s=0.05,
            ),
        ],
        ids=["uniform", "poisson", "bursty", "diurnal", "flash_crowd"],
    )
    def test_empty_streams_are_an_error_not_a_noop(self, generate):
        """Regression: ``n < 1`` used to yield a silent empty stream."""
        for bad_n in (0, -3):
            with pytest.raises(ValueError, match="at least one arrival"):
                generate(bad_n)
        assert len(generate(2)) == 2

    def test_diurnal_swings_between_trough_and_peak(self):
        period = 0.02
        times = diurnal_arrival_times(
            make_rng(11), 20_000, base_rate_tps=10_000.0,
            peak_rate_tps=50_000.0, period_s=period,
        )
        assert np.all(np.diff(times) >= 0)
        phases = times % period
        # Peak half-periods (around period/2) must be denser than
        # trough half-periods (around 0): the sinusoid is visible.
        near_peak = np.sum(np.abs(phases - period / 2) < period / 4)
        near_trough = len(times) - near_peak
        assert near_peak > 2 * near_trough

    def test_diurnal_rejects_degenerate_rates(self):
        with pytest.raises(ValueError, match="rate-0 trough"):
            diurnal_arrival_times(
                make_rng(1), 10, base_rate_tps=0.0,
                peak_rate_tps=100.0, period_s=1.0,
            )
        with pytest.raises(ValueError, match="peak_rate_tps"):
            diurnal_arrival_times(
                make_rng(1), 10, base_rate_tps=100.0,
                peak_rate_tps=50.0, period_s=1.0,
            )
        with pytest.raises(ValueError, match="period_s"):
            diurnal_arrival_times(
                make_rng(1), 10, base_rate_tps=50.0,
                peak_rate_tps=100.0, period_s=0.0,
            )

    def test_flash_crowd_concentrates_in_its_window(self):
        at, duration = 0.01, 0.005
        times = flash_crowd_arrival_times(
            make_rng(7), 2000, base_rate_tps=10_000.0, flash_at_s=at,
            flash_rate_tps=200_000.0, flash_duration_s=duration,
        )
        assert np.all(np.diff(times) >= 0)
        in_window = np.sum((times >= at) & (times < at + duration))
        # The window holds far more than its share of a flat baseline.
        assert in_window >= 900

    def test_flash_crowd_rejects_degenerate_windows(self):
        """Regression: a zero-duration burst must be an explicit error."""
        with pytest.raises(ValueError, match="zero-duration burst"):
            flash_crowd_arrival_times(
                make_rng(1), 10, base_rate_tps=50.0, flash_at_s=0.0,
                flash_rate_tps=500.0, flash_duration_s=0.0,
            )
        with pytest.raises(ValueError, match="exceed base_rate_tps"):
            flash_crowd_arrival_times(
                make_rng(1), 10, base_rate_tps=500.0, flash_at_s=0.0,
                flash_rate_tps=500.0, flash_duration_s=0.1,
            )
        with pytest.raises(ValueError, match="too short"):
            flash_crowd_arrival_times(
                make_rng(1), 10, base_rate_tps=50.0, flash_at_s=0.0,
                flash_rate_tps=100.0, flash_duration_s=1e-6,
            )
        with pytest.raises(ValueError, match="flash_at_s"):
            flash_crowd_arrival_times(
                make_rng(1), 10, base_rate_tps=50.0, flash_at_s=-0.1,
                flash_rate_tps=500.0, flash_duration_s=0.1,
            )

    @pytest.mark.parametrize(
        "generate",
        [
            lambda: uniform_arrival_times(5, float("nan")),
            lambda: poisson_arrival_times(make_rng(1), 5, float("nan")),
            lambda: bursty_arrival_times(make_rng(1), 5, 1e3, float("nan")),
            lambda: bursty_arrival_times(make_rng(1), 5, 1e3, float("inf")),
            lambda: diurnal_arrival_times(make_rng(1), 5, float("nan"), 2e3, 1.0),
            lambda: diurnal_arrival_times(make_rng(1), 5, 1e3, float("nan"), 1.0),
            lambda: diurnal_arrival_times(make_rng(1), 5, 1e3, float("inf"), 1.0),
            lambda: diurnal_arrival_times(make_rng(1), 5, 1e3, 2e3, float("nan")),
            lambda: flash_crowd_arrival_times(
                make_rng(1), 5, 50.0, float("nan"), 500.0, 0.1
            ),
            lambda: flash_crowd_arrival_times(
                make_rng(1), 5, 50.0, 0.0, float("nan"), 0.1
            ),
            lambda: flash_crowd_arrival_times(
                make_rng(1), 5, 50.0, 0.0, 500.0, float("nan")
            ),
        ],
        ids=[
            "uniform-rate", "poisson-rate", "bursty-period-nan",
            "bursty-period-inf", "diurnal-base", "diurnal-peak-nan",
            "diurnal-peak-inf", "diurnal-period", "flash-at", "flash-rate",
            "flash-duration",
        ],
    )
    def test_a_nan_or_unusable_inf_is_rejected(self, generate):
        """Regression: NaN slipped through every ``x <= 0`` guard (NaN
        times, or a diurnal thinning loop that never returned)."""
        with deadline(), pytest.raises(ValueError):
            generate()

    def test_an_infinite_rate_stays_accepted(self):
        assert uniform_arrival_times(3, float("inf")).tolist() == [0.0] * 3
        times = poisson_arrival_times(make_rng(1), 3, float("inf"))
        assert times.tolist() == [0.0] * 3
        times = bursty_arrival_times(make_rng(1), 3, float("inf"), 0.1)
        assert times.tolist() == [0.0] * 3

    def test_timed_specs_zips_and_validates(self):
        specs = [("a", (1,)), ("b", (2,))]
        triples = timed_specs(specs, np.array([0.1, 0.2]))
        assert triples == [("a", (1,), 0.1), ("b", (2,), 0.2)]
        with pytest.raises(ValueError):
            timed_specs(specs, np.array([0.1]))


def _bank_registry() -> ProcedureRegistry:
    registry = ProcedureRegistry()
    registry.register_many(BANK_PROCEDURES)
    return registry


def _controller_state(controller: AdmissionController, pool: TransactionPool):
    """Everything observable about a controller + pool, for equality."""
    return (
        dataclasses.asdict(controller.stats),
        [
            (t.txn_id, t.type_name, t.params, t.submit_time)
            for t in controller.admitted_log
        ],
        {t: controller.tenant_depth(t) for t in ("", "a", "b", "c")},
        dict(controller._shard_depth),
        [
            (t.txn_id, t.type_name, t.params, t.submit_time)
            for t in pool
        ],
    )


def _run_both(arrivals, **controller_kwargs):
    """Offer the same stream one-by-one and as one batch; return both
    final states plus the per-arrival decisions."""
    loop = AdmissionController(**controller_kwargs)
    loop_pool = TransactionPool()
    loop_fates = [loop.offer(a, loop_pool) for a in arrivals]
    batched = AdmissionController(**controller_kwargs)
    batch_pool = TransactionPool()
    batch_fates = batched.offer_batch(list(arrivals), batch_pool)
    return (
        loop_fates,
        batch_fates,
        _controller_state(loop, loop_pool),
        _controller_state(batched, batch_pool),
    )


class TestOfferBatchEquivalence:
    """offer_batch must be decision- and accounting-identical to the
    per-arrival offer loop -- including the closed-form untenanted
    fast path and the quota/shard walking path."""

    def _arrivals(self, n=20, tenants=("",), with_transfers=False):
        out = []
        for i in range(n):
            tenant = tenants[i % len(tenants)]
            if with_transfers and i % 3 == 0:
                out.append(
                    Arrival("transfer", (i % 4, (i + 1) % 4, 1), i * 0.1,
                            tenant)
                )
            else:
                out.append(Arrival("deposit", (i % 4, 5), i * 0.1, tenant))
        return out

    def test_global_cap_fast_path(self):
        loop_fates, batch_fates, loop_state, batch_state = _run_both(
            self._arrivals(20), max_pending=7, record_admitted=True
        )
        assert batch_fates == loop_fates
        assert batch_state == loop_state
        assert batch_fates == [True] * 7 + [False] * 13

    def test_tenant_quotas_walk_the_slice(self):
        loop_fates, batch_fates, loop_state, batch_state = _run_both(
            self._arrivals(24, tenants=("a", "b", "c")),
            max_pending=100,
            tenant_quotas={"a": 2, "b": 5},
            record_admitted=True,
        )
        assert batch_fates == loop_fates
        assert batch_state == loop_state
        # Quota rejections actually happened (tenant "a" over its 2).
        assert not all(batch_fates)

    def test_tenanted_without_quotas_keeps_accounting(self):
        """Tenant high-water marks and splits are tracked even without
        quotas, so tenanted batches cannot take the closed form."""
        loop_fates, batch_fates, loop_state, batch_state = _run_both(
            self._arrivals(12, tenants=("a", "b")), max_pending=5
        )
        assert batch_fates == loop_fates
        assert batch_state == loop_state

    def test_per_shard_caps_and_attribution(self):
        kwargs = dict(
            max_pending=100,
            max_pending_per_shard=2,
            router=HashShardRouter(2),
            registry=_bank_registry(),
        )
        loop_fates, batch_fates, loop_state, batch_state = _run_both(
            self._arrivals(16, with_transfers=True), **kwargs
        )
        assert batch_fates == loop_fates
        assert batch_state == loop_state
        # rejected_by_shard blamed a shard at least once.
        assert loop_state[0]["rejected_by_shard"]

    def test_empty_batch_is_a_noop(self):
        controller = AdmissionController(max_pending=4)
        pool = TransactionPool()
        assert controller.offer_batch([], pool) == []
        assert controller.stats.offered == 0

    def test_interleaved_batches_and_drains(self):
        """Batch boundaries must not matter: offering in slices with
        pool drains between them matches the loop doing the same."""
        arrivals = self._arrivals(30, tenants=("", "a"))
        cuts = [0, 9, 10, 23, 30]

        def run(batched: bool):
            controller = AdmissionController(
                max_pending=6, tenant_quotas={"a": 3},
                record_admitted=True,
            )
            pool = TransactionPool()
            fates = []
            for lo, hi in zip(cuts, cuts[1:]):
                chunk = arrivals[lo:hi]
                if batched:
                    fates.extend(controller.offer_batch(chunk, pool))
                else:
                    fates.extend(controller.offer(a, pool) for a in chunk)
                controller.note_executed(pool.take(4))
            return fates, _controller_state(controller, pool)

        assert run(batched=True) == run(batched=False)


class TestTm1TimedGeneration:
    @pytest.fixture(scope="class")
    def db(self):
        return tm1.build_database(1)

    @pytest.mark.parametrize("pattern", ["uniform", "poisson", "bursty"])
    def test_patterns_produce_nondecreasing_triples(self, db, pattern):
        triples = tm1.generate_timed_transactions(
            db, 50, rate_tps=10_000.0, pattern=pattern, seed=9
        )
        assert len(triples) >= 50  # split lookup halves may add more
        times = [t for _name, _params, t in triples]
        assert times == sorted(times)
        # The stream is consumable by the serve-side validator.
        ArrivalStream(triples).pop_until(float("inf"))

    def test_unknown_pattern_rejected(self, db):
        with pytest.raises(ValueError):
            tm1.generate_timed_transactions(
                db, 10, rate_tps=1000.0, pattern="sawtooth"
            )
