"""CI smoke lane for the figure benches.

Every ``bench_*.py`` file under ``benchmarks/`` is imported and every
figure function it uses is executed end to end on a tiny configuration
(``REPRO_BENCH_SMOKE=1`` shrinks every ``scaled()`` size), asserting
the reproduced series is well-formed. The point is rot detection, not
performance: any API drift between the library and a bench breaks CI
in seconds instead of surfacing months later when someone reruns the
full-size figures.

These tests carry the ``smoke`` marker and are deselected by default
(``addopts = -m "not smoke"``); the CI smoke job opts back in with
``pytest benchmarks -m smoke``.
"""

import importlib.util
import inspect
import pathlib

import pytest

from repro.bench.harness import FigureResult

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


def _load_bench(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(
        f"bench_smoke_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _figure_functions(module):
    """Zero-arg callables the bench imported from repro.bench.*,
    directly or as the values of a registry dict (``ALL_FIGURES``)."""
    candidates = []
    for name, value in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if isinstance(value, dict):
            candidates.extend(sorted(value.items()))
        else:
            candidates.append((name, value))
    functions = []
    for name, value in candidates:
        if isinstance(value, type) or not callable(value):
            continue
        if not getattr(value, "__module__", "").startswith("repro.bench"):
            continue
        parameters = inspect.signature(value).parameters.values()
        if any(
            p.default is inspect.Parameter.empty
            and p.kind
            not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            for p in parameters
        ):
            continue
        functions.append((name, value))
    return functions


def test_every_bench_is_covered():
    """The glob actually sees the bench suite (guards the lane itself)."""
    assert len(BENCH_FILES) >= 9
    # The paper's 15 figures share one parametrized file.
    figures = _load_bench(BENCH_DIR / "bench_figures.py")
    assert len(_figure_functions(figures)) == len(figures.ALL_FIGURES) >= 15
    assert any(p.stem == "bench_durability_overhead" for p in BENCH_FILES)
    assert any(p.stem == "bench_workload_coverage" for p in BENCH_FILES)
    assert any(p.stem == "bench_cluster_elastic" for p in BENCH_FILES)
    assert any(p.stem == "bench_scenarios" for p in BENCH_FILES)
    assert any(p.stem == "bench_online_serving" for p in BENCH_FILES)


@pytest.mark.smoke
@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_bench_smoke(path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    module = _load_bench(path)
    functions = _figure_functions(module)
    assert functions, f"{path.name} imports no runnable figure functions"
    for name, figure_fn in functions:
        result = figure_fn()
        assert isinstance(result, FigureResult), name
        assert result.rows, f"{name} produced no rows"
        assert all(
            len(row) == len(result.columns) for row in result.rows
        ), f"{name} rows do not match its columns"
        assert result.format_table().startswith("##"), name
