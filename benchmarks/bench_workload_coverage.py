"""The full workload suite on the vectorized backend, plus SmallBank.

BACKEND-3 runs every workload (micro, TM1, TPC-B, TPC-C, SmallBank)
through both execution backends under K-SET, PART, and -- for the
full TPC-C mix -- columnar TPL. Every row asserts byte-identical
outcomes, final state, and simulated clock, and every type must have
a vector kernel -- the coverage matrix documented in
docs/WORKLOADS.md. (The backends' host-clock ratio is a row of the host
benchmark, benchmarks/host: core.backends.vec_over_interp.)
SMALLBANK-1 sweeps the zipfian skew knob across strategies on the
SmallBank workload.

Run: pytest benchmarks/bench_workload_coverage.py --benchmark-only -q
The reproduced series is printed and saved to benchmarks/results/.
"""

import os

from repro.bench.coverage import smallbank_skew, workload_coverage


def test_workload_coverage(figure_runner):
    result = figure_runner(workload_coverage)
    assert result.rows, "experiment produced no series"
    workloads = {row[0] for row in result.rows}
    assert {"micro", "tm1", "tpcb", "tpcc-neworder", "tpcc-mix",
            "smallbank", "smallbank-local"} <= workloads
    # The coverage matrix (matches docs/WORKLOADS.md): every type of
    # every workload has a vector kernel. Asserted in every lane.
    for row in result.rows:
        name, _strategy, _bulk, coverage, waves_vec, _ktps = row
        have, total = coverage.split("/")
        assert have == total, f"{name}: vector coverage {coverage}"
        assert waves_vec > 0, f"{name}: no vectorized waves"


def test_smallbank_skew(figure_runner):
    result = figure_runner(smallbank_skew)
    thetas = sorted({row[0] for row in result.rows})
    assert len(thetas) >= 3
    by_key = {(row[0], row[1]): row for row in result.rows}
    # PART degrades to its TPL fallback on the full mix (cross-
    # partition two-customer types) at every skew level.
    for theta in thetas:
        assert by_key[(theta, "part")][2] == "part(tpl-fallback)"
        assert by_key[(theta, "kset")][2] == "kset"
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return
    # Skew deepens the T-dependency graph: K-SET throughput at the
    # heaviest skew must fall below the uniform case.
    kset = {theta: by_key[(theta, "kset")][5] for theta in thetas}
    assert kset[max(thetas)] < kset[min(thetas)]
