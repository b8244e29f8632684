"""The one command surface (``python -m repro``).

The former aliases (``python -m repro.bench``, ``python -m
repro.telemetry``) are gone: those packages no longer carry a
``__main__``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import repro.telemetry as telemetry
from repro.cli import main
from repro.telemetry.export import write_trace
from repro.telemetry.report import main as telemetry_main

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture()
def tiny_trace(tmp_path):
    """A minimal but real exported trace."""
    with telemetry.session() as session:
        span = session.tracer.begin("bulk-1", cat=telemetry.CAT_BULK)
        session.tracer.phase("execution", 0.25)
        session.tracer.end(span)
    path = tmp_path / "trace.json"
    write_trace(str(path), session.tracer, session.metrics)
    return str(path)


def run_module(module_args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", *module_args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        cwd=cwd,
    )


class TestFrontDoor:
    def test_no_args_prints_usage_and_fails(self, capsys):
        assert main([]) == 2
        assert "usage: python -m repro" in capsys.readouterr().out

    def test_help_prints_usage_and_succeeds(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in ("bench", "telemetry", "migrate-demo", "scenarios"):
            assert command in out

    def test_unknown_command_fails(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_telemetry_report_matches_direct_entry(self, tiny_trace, capsys):
        """`repro telemetry report` == `repro.telemetry.report.main`."""
        assert telemetry_main(["report", tiny_trace]) == 0
        direct = capsys.readouterr().out
        assert main(["telemetry", "report", tiny_trace]) == 0
        routed = capsys.readouterr().out
        assert routed == direct
        assert "execution" in routed

    def test_telemetry_validate_matches_direct_entry(
        self, tiny_trace, capsys
    ):
        assert telemetry_main(["validate", tiny_trace]) == 0
        direct = capsys.readouterr().out
        assert main(["telemetry", "validate", tiny_trace]) == 0
        assert capsys.readouterr().out == direct

    def test_bench_delegates_to_harness(self, monkeypatch):
        """`repro bench` hands argv straight to the bench harness."""
        seen = {}

        def fake_main(argv=None):
            seen["argv"] = argv
            return 0

        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "main", fake_main)
        assert main(["bench", "--out", "X.json"]) == 0
        assert seen["argv"] == ["--out", "X.json"]


class TestScenariosCommand:
    """`python -m repro scenarios list|run|verify`."""

    def test_list_shows_every_registered_scenario(self, capsys):
        from repro.scenarios import names

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert name in out
        assert "tenants=victim,aggressor" in out

    def test_run_prints_tenant_summaries(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_SMOKE", "1")
        assert main(["scenarios", "run", "noisy_neighbor"]) == 0
        out = capsys.readouterr().out
        assert "scenario noisy_neighbor (serve):" in out
        assert "tenant victim:" in out
        assert "tenant aggressor:" in out
        assert "p95=" in out

    def test_run_respects_scale_flag(self, capsys):
        assert main(
            ["scenarios", "run", "block_execution", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "n=60" in out
        assert "kills=1" in out

    def test_verify_passes_on_a_seed(self, capsys):
        assert main(
            ["scenarios", "verify", "flash_sale", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario flash_sale:" in out
        assert "[PASS] definition-1" in out
        assert "[PASS] isolation" in out
        assert "[PASS] recovery" in out
        assert "=> OK" in out

    def test_verify_all_covers_the_registry(self, capsys, monkeypatch):
        from repro.scenarios import names

        monkeypatch.setenv("REPRO_SCENARIO_SMOKE", "1")
        assert main(["scenarios", "verify", "--all"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert f"scenario {name}:" in out
        assert "FAILED" not in out

    @pytest.mark.parametrize("action", ["run", "verify"])
    @pytest.mark.parametrize(
        "flag", [["--scale", "nan"], ["--scale", "inf"], ["--seed", "-1"]],
        ids=["scale-nan", "scale-inf", "seed-negative"],
    )
    def test_bad_scale_or_seed_is_an_error_not_a_traceback(
        self, capsys, action, flag
    ):
        assert main(["scenarios", action, "flash_sale", *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag[0][2:] in err
        assert "Traceback" not in err

    def test_verify_without_names_is_usage_error(self, capsys):
        assert main(["scenarios", "verify"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenarios", "run", "no_such"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert main(["scenarios", "verify", "no_such"]) == 2

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        from repro.scenarios.verify import Check, VerificationReport

        def fake_verify(name, scale=None, seed=None):
            return VerificationReport(
                scenario=str(name),
                checks=[Check("isolation", False, "forced failure")],
            )

        monkeypatch.setattr(
            "repro.scenarios.verify_scenario", fake_verify
        )
        assert main(["scenarios", "verify", "flash_sale"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] isolation" in out
        assert "=> FAILED" in out


class TestAliases:
    """`python -m repro` is the only `-m` spelling."""

    @pytest.mark.parametrize("package", ["repro.bench", "repro.telemetry"])
    def test_removed_alias_has_no_main(self, package):
        old = run_module([package, "--help"])
        assert old.returncode != 0
        assert f"No module named {package}.__main__" in old.stderr

    def test_python_m_repro_bench_help(self):
        new = run_module(["repro", "bench", "--help"])
        assert new.returncode == 0
        assert "usage: python -m repro bench" in new.stdout
        assert "--out" in new.stdout

    def test_migrate_demo_runs(self):
        demo = run_module(["repro", "migrate-demo", "--txns", "60"])
        assert demo.returncode == 0, demo.stderr
        assert "range table (before):" in demo.stdout
        assert "range table (after):" in demo.stdout
        assert "migrated [" in demo.stdout
