"""Unit tests for the unified telemetry layer.

Covers the tracer's span/cursor mechanics, the metrics registry, the
Chrome trace-event exporter and its validator, the trace report CLI,
the context-var session plumbing, and the overhead budget: tracing
must be near-free when disabled and cheap when enabled.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.core.backends import EngineOptions
from repro.core.engine import GPUTx
from repro.telemetry import (
    CAT_BULK,
    CAT_PHASE,
    CAT_WAVE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    percentile,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.report import (
    format_report,
    layers,
    main as report_main,
    phase_totals,
    slowest_bulks,
    trace_spans,
)

from tests.conftest import BANK_PROCEDURES, build_bank_db, random_bank_specs


class TestTracer:
    def test_nested_spans_and_cursor_advance(self):
        tracer = Tracer()
        bulk = tracer.begin("bulk-0", cat=CAT_BULK)
        tracer.phase("transfer_in", 0.25)
        exec_span = tracer.begin("execution", cat=CAT_PHASE)
        tracer.phase("wave-0", 1.0, cat=CAT_WAVE)
        tracer.phase("wave-1", 0.5, cat=CAT_WAVE)
        tracer.end(exec_span, advance_parent=True)
        tracer.end(bulk)

        assert tracer.open_depth == 0
        spans = {s.name: s for s in tracer.spans}
        assert spans["transfer_in"].sim_start_s == 0.0
        assert spans["transfer_in"].sim_duration_s == pytest.approx(0.25)
        # The execution sub-tree starts at the parent cursor after
        # transfer_in, and the waves stack sequentially inside it.
        assert spans["execution"].sim_start_s == pytest.approx(0.25)
        assert spans["wave-0"].sim_start_s == pytest.approx(0.25)
        assert spans["wave-1"].sim_start_s == pytest.approx(1.25)
        assert spans["execution"].sim_end_s == pytest.approx(1.75)
        assert spans["bulk-0"].sim_end_s == pytest.approx(1.75)
        # Closing the root advances the simulated clock for the next
        # bulk: its spans must not rewind the timeline.
        assert tracer.sim_now == pytest.approx(1.75)

    def test_end_closes_straggler_children(self):
        tracer = Tracer()
        bulk = tracer.begin("bulk", cat=CAT_BULK)
        tracer.begin("child", cat=CAT_PHASE)
        tracer.end(bulk)
        assert tracer.open_depth == 0

    def test_parent_linkage(self):
        tracer = Tracer()
        bulk = tracer.begin("bulk", cat=CAT_BULK)
        tracer.phase("p", 1.0)
        tracer.end(bulk)
        child = next(s for s in tracer.spans if s.name == "p")
        assert child.parent_id == bulk.span_id

    def test_close_all(self):
        tracer = Tracer()
        tracer.begin("a", cat=CAT_BULK)
        tracer.begin("b", cat=CAT_PHASE)
        tracer.close_all()
        assert tracer.open_depth == 0
        assert all(s.sim_end_s is not None for s in tracer.spans)


class TestMetrics:
    def test_counter_labels_and_total(self):
        c = Counter("waves")
        c.inc(strategy="kset")
        c.inc(2, strategy="part")
        assert c.value(strategy="kset") == 1
        assert c.value(strategy="part") == 2
        assert c.total == 3

    def test_counter_rejects_negative_and_nan(self):
        c = Counter("n")
        with pytest.raises(ValueError):
            c.inc(-1)
        with pytest.raises(ValueError):
            c.inc(float("nan"))

    def test_gauge_overwrites(self):
        g = Gauge("depth")
        g.set(3, shard=0)
        g.set(5, shard=0)
        assert g.value(shard=0) == 5

    def test_histogram_summary_matches_shared_percentile(self):
        h = Histogram("lat")
        values = [0.5, 1.0, 2.0, 4.0, 8.0]
        for v in values:
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 5
        assert summary["p50"] == pytest.approx(percentile(values, 50))
        assert summary["p95"] == pytest.approx(percentile(values, 95))
        assert summary["max"] == 8.0

    def test_every_recording_path_rejects_nan(self):
        from repro.serve.metrics import Percentiles
        from repro.telemetry.metrics import summarize

        h = Histogram("lat")
        for record in (
            lambda: h.observe(float("nan")),
            lambda: h.observe_many([1.0, float("nan")]),
            lambda: summarize(np.array([1.0, float("nan")])),
            lambda: Percentiles.of([float("nan")]),
        ):
            with pytest.raises(ValueError, match="NaN"):
                record()
        assert h.count() == 0

    def test_observe_takes_one_number_not_a_sequence(self):
        with pytest.raises(TypeError):
            Histogram("lat").observe([1.0, 2.0])

    def test_empty_histogram_is_all_zeros(self):
        assert Histogram("x").summary() == {
            "count": 0, "sum": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_percentile_matches_numpy_interpolation(self):
        rng = np.random.default_rng(7)
        array = rng.random(101)
        for values in (array.tolist(), array):
            for q in (0, 10, 50, 90, 99, 100):
                assert percentile(values, q) == pytest.approx(
                    float(np.percentile(values, q))
                )

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        assert percentile([], 95) == 0.0

    def test_percentile_of_empty_is_zero_at_every_q(self):
        """No samples -> 0.0, never an IndexError, for any quantile."""
        for q in (0, 50, 95, 99, 100):
            assert percentile([], q) == 0.0
            assert percentile(np.array([]), q) == 0.0

    def test_empty_serve_latency_summary_is_defined(self):
        """The serve layer's summaries ride on the same histogram and
        must give a defined all-zero shape for an idle server (zero
        executed transactions), not crash on the empty percentile."""
        from repro.serve.metrics import LatencySummary, Percentiles, TOTAL

        empty = Percentiles.of([])
        assert (empty.mean, empty.p50, empty.p95, empty.p99, empty.max) == (
            0.0, 0.0, 0.0, 0.0, 0.0,
        )
        summary = LatencySummary.of([])
        assert summary.count == 0
        assert summary.shed == 0
        assert summary.shed_rate == 0.0
        assert summary.p95_total_s == 0.0
        assert summary[TOTAL].p95 == 0.0

    def test_registry_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", help="count").inc(shard=1)
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["c"]["help"] == "count"
        (series,) = snap["counters"]["c"]["series"]
        assert series["labels"] == {"shard": "1"}
        assert series["value"] == 1


def _traced_trace():
    """A tiny but real trace: one engine bulk under a session."""
    db = build_bank_db(64)
    engine = GPUTx(db, procedures=BANK_PROCEDURES)
    rng = np.random.default_rng(11)
    with telemetry.session() as tel:
        engine.submit_many(random_bank_specs(rng, 64, 64))
        engine.run_bulk(strategy="kset")
    return tel, tel.trace()


class TestExportAndValidate:
    def test_engine_bulk_trace_is_valid(self):
        _, trace = _traced_trace()
        assert validate_chrome_trace(trace) == []
        assert trace["traceEvents"]

    def test_validator_catches_corruption(self):
        _, trace = _traced_trace()
        # Unknown phase letter.
        bad = json.loads(json.dumps(trace))
        bad["traceEvents"].append({"ph": "Z", "ts": 0, "pid": 1, "tid": 1})
        assert validate_chrome_trace(bad)
        # Unmatched B.
        bad = json.loads(json.dumps(trace))
        bad["traceEvents"].append(
            {"ph": "B", "ts": 0.0, "pid": 1, "tid": 1, "name": "orphan"}
        )
        assert any("unclosed" in p for p in validate_chrome_trace(bad))
        # Non-monotone timestamps within a track.
        bad = json.loads(json.dumps(trace))
        dur = [e for e in bad["traceEvents"] if e["ph"] in ("B", "E")]
        dur[-1]["ts"] = -1.0
        assert validate_chrome_trace(bad)
        # Not a trace at all.
        assert validate_chrome_trace([1, 2, 3])
        assert validate_chrome_trace({"traceEvents": "nope"})

    def test_open_spans_are_closed_at_export(self):
        tracer = Tracer()
        tracer.begin("bulk", cat=CAT_BULK)
        tracer.phase("p", 1.0)
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []

    def test_export_smooths_float_dust_but_not_real_regressions(self):
        """Adjacent spans equal modulo float association order export
        monotone; regressions beyond a nanosecond stay visible."""
        tracer = Tracer()
        end = 0.1 + 0.2  # 0.30000000000000004
        a = tracer.begin("bulk-a", cat=CAT_BULK)
        tracer.end(a, sim_end=end)
        b = tracer.begin("bulk-b", cat=CAT_BULK, sim_start=0.3)
        tracer.end(b, sim_end=0.4)
        trace = to_chrome_trace(tracer)
        assert validate_chrome_trace(trace) == []

        tracer = Tracer()
        a = tracer.begin("bulk-a", cat=CAT_BULK)
        tracer.end(a, sim_end=1.0)
        b = tracer.begin("bulk-b", cat=CAT_BULK, sim_start=0.5)
        tracer.end(b, sim_end=2.0)
        assert any(
            "backwards" in p
            for p in validate_chrome_trace(to_chrome_trace(tracer))
        )

    def test_metrics_ride_in_other_data(self):
        tel, trace = _traced_trace()
        metrics = trace["otherData"]["metrics"]
        assert metrics["counters"]["bulks_executed"]
        assert tel.metrics.counter("bulks_executed").total == 1


class TestReport:
    def test_phase_totals_reconcile_with_breakdown(self):
        db = build_bank_db(64)
        engine = GPUTx(db, procedures=BANK_PROCEDURES)
        rng = np.random.default_rng(23)
        with telemetry.session() as tel:
            engine.submit_many(random_bank_specs(rng, 96, 64))
            result = engine.run_bulk(strategy="kset")
        totals = phase_totals(tel.trace(), layer="engine")
        for phase, seconds in result.breakdown.phases.items():
            if seconds:
                assert totals[phase] == pytest.approx(seconds, rel=1e-6)

    def test_spans_layers_slowest_and_formatting(self):
        _, trace = _traced_trace()
        assert trace_spans(trace)
        assert "engine" in layers(trace)
        top = slowest_bulks(trace, top=3)
        assert top and top[0]["cat"] == "bulk"
        text = format_report(trace)
        assert "bulk-1" in text and "execution" in text

    def test_cli_report_and_validate(self, tmp_path, capsys):
        tel, _ = _traced_trace()
        path = tel.write(str(tmp_path / "t.json"))
        assert report_main(["report", path]) == 0
        assert "execution" in capsys.readouterr().out
        assert report_main(["validate", path]) == 0
        assert capsys.readouterr().out.startswith("OK:")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert report_main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestSession:
    def test_current_is_none_by_default(self):
        assert telemetry.current() is None

    def test_session_scopes_and_resets(self):
        with telemetry.session() as tel:
            assert telemetry.current() is tel
        assert telemetry.current() is None

    def test_install_uninstall(self):
        tel = telemetry.install()
        try:
            assert telemetry.current() is tel
        finally:
            assert telemetry.uninstall() is tel
        assert telemetry.current() is None

    def test_env_truthy(self):
        truthy = telemetry._env_truthy
        assert truthy("1") and truthy("yes") and truthy("on")
        assert not truthy("0") and not truthy("false") and not truthy(None)

    def test_install_from_env_disabled(self, monkeypatch):
        monkeypatch.delenv(telemetry.TRACE_ENV, raising=False)
        assert telemetry.install_from_env() is None
        monkeypatch.setenv(telemetry.TRACE_ENV, "0")
        assert telemetry.install_from_env() is None

    def test_session_writes_loadable_trace(self, tmp_path):
        tel, _ = _traced_trace()
        path = tel.write(str(tmp_path / "out.json"))
        loaded = telemetry.load_trace(path)
        assert validate_chrome_trace(loaded) == []


class TestOverhead:
    """The acceptance budget: disabled <2%, enabled <10% wall overhead.

    Measured on a smoke-sized bank bulk through the vectorized
    backend (the BACKEND-1 configuration). min-of-N wall times keep
    scheduler noise out of the ratio.
    """

    N_TXNS = 512
    N_ACCOUNTS = 512
    REPEATS = 5

    def _run_once(self) -> float:
        db = build_bank_db(self.N_ACCOUNTS)
        engine = GPUTx(
            db,
            procedures=BANK_PROCEDURES,
            # The bank set has no vector forms: its launches run lane
            # by lane on the vectorized backend.
            options=EngineOptions(backend="vectorized"),
        )
        rng = np.random.default_rng(5)
        engine.submit_many(
            random_bank_specs(rng, self.N_TXNS, self.N_ACCOUNTS)
        )
        start = time.perf_counter()
        engine.run_bulk(strategy="kset")
        return time.perf_counter() - start

    def _min_wall(self) -> float:
        return min(self._run_once() for _ in range(self.REPEATS))

    def test_enabled_overhead_under_10_percent(self):
        self._run_once()  # warm imports and caches
        # Alternate the two modes: the host's core speed steps 20-40%
        # for seconds at a time (benchmarks/host/README.md), which
        # back-to-back blocks of runs would read as overhead.
        disabled_runs, enabled_runs = [], []
        for _ in range(self.REPEATS):
            disabled_runs.append(self._run_once())
            with telemetry.session():
                enabled_runs.append(self._run_once())
        disabled, enabled = min(disabled_runs), min(enabled_runs)
        assert enabled <= 1.10 * disabled, (
            f"tracing enabled cost {enabled / disabled - 1:.1%} "
            f"(budget 10%): {disabled:.4f}s -> {enabled:.4f}s"
        )

    def test_disabled_path_is_one_contextvar_read(self):
        """Disabled tracing must stay well under 2% of a bulk's wall.

        The disabled path is ``telemetry.current()`` returning None at
        a handful of call sites per bulk; bound its total cost
        directly against the measured bulk time.
        """
        calls = 10_000
        start = time.perf_counter()
        for _ in range(calls):
            telemetry.current()
        per_call = (time.perf_counter() - start) / calls
        bulk_wall = self._min_wall()
        # <= 16 instrumentation probes fire per engine bulk.
        assert 16 * per_call < 0.02 * bulk_wall, (
            f"current() costs {per_call * 1e9:.0f}ns/call against a "
            f"{bulk_wall * 1e3:.1f}ms bulk"
        )
