"""Benchmark configuration.

Each bench file reproduces one figure/table of the paper via
pytest-benchmark. A bench run measures the *simulated experiment* once
(pedantic, one round -- the simulator is deterministic, so repeated
rounds only measure interpreter noise), prints the reproduced series,
and persists it under benchmarks/results/.

CI smoke lane: ``test_bench_smoke.py`` (marker ``smoke``, deselected
by default) runs every bench file's figure functions on tiny
configurations (``REPRO_BENCH_SMOKE=1``), so a bench that drifts out
of sync with the library breaks CI instead of rotting until the next
full-size run. Select it with ``pytest benchmarks -m smoke``.
"""

import pytest


@pytest.fixture
def figure_runner(benchmark, capsys):
    """Run a figure function under pytest-benchmark and persist it."""
    from repro.bench.harness import save_result

    def run(figure_fn):
        result = benchmark.pedantic(figure_fn, rounds=1, iterations=1)
        path = save_result(result)
        with capsys.disabled():
            print()
            print(result.format_table())
            print(f"[saved to {path}]")
        return result

    return run
