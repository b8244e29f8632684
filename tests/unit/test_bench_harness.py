"""Unit tests for the figure-reproduction harness and the CI
perf-trajectory lane built on it."""

import importlib.util
import json
import os
import pathlib

import pytest

from repro.bench.harness import (
    FigureResult,
    collect_headlines,
    headline_metric,
    save_result,
    scaled,
    write_bench_json,
)


class TestFigureResult:
    def make(self) -> FigureResult:
        return FigureResult(
            figure_id="FigXX",
            title="Test figure",
            columns=["name", "value"],
            rows=[("alpha", 1.5), ("beta", 12345.678), ("gamma", 0.0001)],
            notes=["a note"],
        )

    def test_format_table_is_markdown(self):
        text = self.make().format_table()
        assert text.startswith("## FigXX: Test figure")
        assert "| name" in text
        assert "| alpha" in text
        assert "- a note" in text

    def test_float_formatting(self):
        text = self.make().format_table()
        assert "1.50" in text          # plain two-decimal
        assert "1.23e+04" in text      # large -> scientific
        assert "0.0001" in text        # small -> scientific

    def test_column_accessor(self):
        result = self.make()
        assert result.column("name") == ["alpha", "beta", "gamma"]
        with pytest.raises(ValueError):
            result.column("missing")

    def test_save_result_writes_file(self, tmp_path):
        path = save_result(self.make(), directory=str(tmp_path))
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as handle:
            assert "Test figure" in handle.read()


class TestScaling:
    def test_default_scale_is_identity(self):
        assert scaled(100) in (100, 800)  # 800 under REPRO_SCALE=paper


def figure(figure_id="FigA", columns=None, rows=None, headline=None):
    return FigureResult(
        figure_id=figure_id,
        title="t",
        columns=columns or ["x", "ktps"],
        rows=rows or [(1, 10.0), (2, 30.0)],
        headline=headline,
    )


class TestHeadlineMetric:
    def test_explicit_headline_wins(self):
        result = figure(headline=("adaptive_sustained_ktps", 42.0))
        assert headline_metric(result) == ("adaptive_sustained_ktps", 42.0)

    def test_falls_back_to_best_known_column(self):
        assert headline_metric(figure()) == ("ktps", 30.0)

    def test_column_preference_order(self):
        result = figure(
            columns=["speedup", "ktps"], rows=[(2.0, 10.0), (3.0, 5.0)]
        )
        # "ktps" outranks "speedup" in the preference list.
        assert headline_metric(result) == ("ktps", 10.0)

    def test_no_eligible_column_means_no_headline(self):
        result = figure(columns=["component", "bytes"], rows=[("a", 1)])
        assert headline_metric(result) is None

    def test_non_numeric_cells_are_skipped(self):
        result = figure(rows=[(1, "n/a"), (2, 7.0)])
        assert headline_metric(result) == ("ktps", 7.0)


class TestBenchJson:
    def test_collect_and_write_roundtrip(self, tmp_path):
        headlines = collect_headlines(
            {
                "a": lambda: figure(figure_id="FigA"),
                "b": lambda: figure(
                    figure_id="FigB", columns=["component", "bytes"],
                    rows=[("a", 1)],
                ),
            }
        )
        # FigB has no headline and is omitted from the trajectory.
        assert set(headlines) == {"FigA"}
        path = write_bench_json(headlines, str(tmp_path / "BENCH_PR0.json"))
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["schema"] == 1
        assert payload["figures"]["FigA"] == {
            "metric": "ktps", "value": 30.0,
        }


def _load_bench_compare():
    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "scripts"
        / "bench_compare.py"
    )
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchCompare:
    """The regression gate the perf-trajectory CI job runs."""

    def write(self, tmp_path, name, figures):
        path = tmp_path / name
        path.write_text(json.dumps({"schema": 1, "figures": figures}))
        return str(path)

    def run(self, tmp_path, baseline, current, threshold=0.25):
        module = _load_bench_compare()
        base = self.write(tmp_path, "base.json", baseline)
        cur = self.write(tmp_path, "cur.json", current)
        return module.main([cur, "--baseline", base,
                            "--threshold", str(threshold)])

    def test_identical_runs_pass(self, tmp_path, capsys):
        figures = {"FigA": {"metric": "ktps", "value": 100.0}}
        assert self.run(tmp_path, figures, figures) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_beyond_threshold_fails(self, tmp_path, capsys):
        base = {"FigA": {"metric": "ktps", "value": 100.0}}
        cur = {"FigA": {"metric": "ktps", "value": 70.0}}
        assert self.run(tmp_path, base, cur) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_drop_within_threshold_passes(self, tmp_path):
        base = {"FigA": {"metric": "ktps", "value": 100.0}}
        cur = {"FigA": {"metric": "ktps", "value": 80.0}}
        assert self.run(tmp_path, base, cur) == 0

    def test_improvement_passes(self, tmp_path):
        base = {"FigA": {"metric": "ktps", "value": 100.0}}
        cur = {"FigA": {"metric": "ktps", "value": 400.0}}
        assert self.run(tmp_path, base, cur) == 0

    def test_missing_figure_fails(self, tmp_path, capsys):
        base = {"FigA": {"metric": "ktps", "value": 100.0}}
        assert self.run(tmp_path, base, {}) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_new_figure_passes_with_note(self, tmp_path, capsys):
        base = {"FigA": {"metric": "ktps", "value": 100.0}}
        cur = {
            "FigA": {"metric": "ktps", "value": 100.0},
            "FigB": {"metric": "ktps", "value": 5.0},
        }
        assert self.run(tmp_path, base, cur) == 0
        assert "new" in capsys.readouterr().out

    def test_changed_metric_identity_fails(self, tmp_path, capsys):
        """A renamed/dropped headline column makes the numbers
        incomparable; the gate must not diff them."""
        base = {"FigA": {"metric": "ktps", "value": 734.0}}
        cur = {"FigA": {"metric": "speedup", "value": 1.1}}
        assert self.run(tmp_path, base, cur) == 1
        assert "now speedup" in capsys.readouterr().out

    def test_zero_baseline_does_not_divide(self, tmp_path, capsys):
        """A figure whose baseline is exactly 0.0 must not crash the
        gate with a ZeroDivisionError and must not fail the run when
        the current value merely stays at (or rises above) zero."""
        base = {"FigA": {"metric": "shed_rate", "value": 0.0}}
        cur = {"FigA": {"metric": "shed_rate", "value": 0.0}}
        assert self.run(tmp_path, base, cur) == 0
        assert "OK" in capsys.readouterr().out

    def test_zero_baseline_improvement_passes(self, tmp_path):
        base = {"FigA": {"metric": "ktps", "value": 0.0}}
        cur = {"FigA": {"metric": "ktps", "value": 12.5}}
        assert self.run(tmp_path, base, cur) == 0

    def test_drop_below_zero_baseline_fails(self, tmp_path, capsys):
        """Falling below an already-zero baseline is a full regression."""
        base = {"FigA": {"metric": "margin", "value": 0.0}}
        cur = {"FigA": {"metric": "margin", "value": -3.0}}
        assert self.run(tmp_path, base, cur) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_relative_delta_near_zero_baseline(self):
        """Denormal baselines are zero: no million-percent swings."""
        module = _load_bench_compare()
        assert module.relative_delta(0.0, 0.0) == 0.0
        assert module.relative_delta(1e-15, 1e-9) == 0.0
        assert module.relative_delta(0.0, -1e-9) == -1.0
        assert module.relative_delta(100.0, 80.0) == pytest.approx(-0.2)

    def test_self_test_requires_the_gate_to_fire(self, tmp_path, capsys):
        """``--self-test`` (the CI canary) halves the current run's
        headlines in memory: exit 0 only if the gate then goes red."""
        module = _load_bench_compare()
        figures = {
            "FigA": {"metric": "ktps", "value": 100.0},
            "FigB": {"metric": "shed_rate", "value": 0.0},
        }
        base = self.write(tmp_path, "base.json", figures)
        cur = self.write(tmp_path, "cur.json", figures)
        assert module.main([cur, "--baseline", base, "--self-test"]) == 0
        assert "self-test OK" in capsys.readouterr().out
        # A gate too lax to see a 2x slowdown fails its own canary.
        assert module.main(
            [cur, "--baseline", base, "--threshold", "0.6", "--self-test"]
        ) == 1
        assert "self-test FAILED" in capsys.readouterr().out
        # The file on disk was not touched.
        assert json.loads(open(cur).read())["figures"] == figures

    def test_mismatched_run_context_refused(self, tmp_path):
        """A full-size baseline must not gate smoke-mode runs."""
        module = _load_bench_compare()
        base = tmp_path / "base.json"
        base.write_text(json.dumps({
            "schema": 1, "smoke": False, "scale": 8,
            "figures": {"FigA": {"metric": "ktps", "value": 1.0}},
        }))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps({
            "schema": 1, "smoke": True, "scale": 1,
            "figures": {"FigA": {"metric": "ktps", "value": 1.0}},
        }))
        with pytest.raises(SystemExit, match="refusing to compare"):
            module.main([str(cur), "--baseline", str(base)])
