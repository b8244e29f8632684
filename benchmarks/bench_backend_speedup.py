"""Vectorized vs. interpreted execution backend on TM1 bulks.

BACKEND-1 sweeps bulk sizes and strategies; every row asserts the
backends produce byte-identical outcomes, final state, and simulated
clock, and every bulk of the vectorized engine must have run
vectorized. (How much host time that saves is the host benchmark's
business -- benchmarks/host: core.backends.vec_over_interp and the
host_tps rows -- not this simulated-clock registry's.) BACKEND-2 pins
that every type runs vectorized: types without a vector form under
K-SET, TPL and PART, and undo-logged types on PART.

Run: pytest benchmarks/bench_backend_speedup.py --benchmark-only -q
The reproduced series is printed and saved to benchmarks/results/.
"""

from repro.bench.backend import backend_speedup, every_type_vectorized


def test_backend_speedup(figure_runner):
    result = figure_runner(backend_speedup)
    assert result.rows, "experiment produced no series"
    # Equivalence is asserted inside the figure on every row.
    for row in result.rows:
        bulk, strategy, _chosen, path, waves_vec, ktps = row
        assert path == "vectorized", f"{strategy}@{bulk} ran {path}"
        assert waves_vec > 0
        assert ktps > 0


def test_every_type_vectorized(figure_runner):
    result = figure_runner(every_type_vectorized)
    assert all(row[3] for row in result.rows), "backends diverged"
    assert all(row[2] > 0 for row in result.rows), "a case never launched"
    cases = {(case, strategy) for case, strategy, *_ in result.rows}
    assert cases == {
        ("vector-forms", "kset"),
        ("no-vector-form", "kset"),
        ("no-vector-form", "tpl"),
        ("no-vector-form", "part"),
        ("undo-logged", "part"),
    }
