"""Vectorized vs. interpreted execution backend on TM1 bulks.

BACKEND-1 sweeps bulk sizes and strategies; every row asserts the
backends produce byte-identical outcomes, final state, and simulated
clock, and every wave of the vectorized engine must have run
vectorized. (How much host time that saves is the host benchmark's
business -- benchmarks/host: core.backends.vec_over_interp and the
host_tps rows -- not this simulated-clock registry's.) BACKEND-2 pins
the per-wave interpreter fallback.

Run: pytest benchmarks/bench_backend_speedup.py --benchmark-only -q
The reproduced series is printed and saved to benchmarks/results/.
"""

from repro.bench.backend import backend_fallback, backend_speedup


def test_backend_speedup(figure_runner):
    result = figure_runner(backend_speedup)
    assert result.rows, "experiment produced no series"
    # Equivalence is asserted inside the figure on every row.
    for row in result.rows:
        bulk, strategy, _chosen, path, waves_vec, waves_interp, ktps = row
        assert path == "vectorized", f"{strategy}@{bulk} ran {path}"
        assert waves_vec > 0 and waves_interp == 0
        assert ktps > 0


def test_backend_fallback(figure_runner):
    result = figure_runner(backend_fallback)
    by_case = {row[0]: row for row in result.rows}
    assert all(row[3] for row in result.rows), "fallback diverged"
    # The happy path vectorizes; the unsupported cases interpret.
    assert by_case["column+vector-forms"][1] > 0
    assert by_case["column+vector-forms"][2] == 0
    assert by_case["row-layout"][1] == 0 and by_case["row-layout"][2] > 0
    assert by_case["no-vector-form"][1] == 0
    assert by_case["no-vector-form"][2] > 0
