"""Reproduces the paper's Figures 3-9 and 12-17 and its two in-text tables.

One parametrized test per entry of
:data:`repro.bench.figures.ALL_FIGURES` (docs/BENCHMARKS.md lists what
each shows).

Run all: pytest benchmarks/bench_figures.py --benchmark-only -q
Run one: pytest benchmarks/bench_figures.py --benchmark-only -q -k fig04
The reproduced series is printed and saved to benchmarks/results/.
"""

import pytest

from repro.bench.figures import ALL_FIGURES


@pytest.mark.parametrize("key", ALL_FIGURES)
def test_figure(key, figure_runner):
    result = figure_runner(ALL_FIGURES[key])
    assert result.rows, "experiment produced no series"
