"""Execution-backend benchmarks: vectorized vs. interpreted.

BACKEND-1 runs TM1 bulks through both backends and *asserts* the
equivalence contract on every row: byte-identical outcomes, identical
final physical state, and an identical simulated clock. It reports
which path ran the vectorized engine's waves and the (simulated,
deterministic) throughput both backends share. What the vectorized
backend buys is host time, and host time is measured by the host
benchmark (``benchmarks/host``: ``core.backends.vec_over_interp`` and
the ``host_tps`` rows), not here -- this registry runs on the
simulated clock only.

BACKEND-2 pins the fallback contract: waves whose types have no
vector form (or a row-layout store) silently run through the
interpreter with identical results.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.bench.harness import FigureResult, scaled
from repro.core.backends import EngineOptions
from repro.core.engine import GPUTx
from repro.workloads import micro, tm1

_TM1_SF = 4
_SIZES = (2_000, 8_000)
_STRATEGIES = ("kset", "part", "auto")


def _outcomes(result) -> List[Tuple]:
    return [
        (r.txn_id, r.committed, r.abort_reason, r.value)
        for r in result.results
    ]


def assert_backends_agree(label: str, interpreted, vectorized) -> None:
    """The equivalence contract on one ``(db, result)`` pair per
    backend: byte-identical outcomes, state, and simulated clock."""
    (db_i, res_i), (db_v, res_v) = interpreted, vectorized
    assert _outcomes(res_i) == _outcomes(res_v), (
        f"backend outcomes diverged ({label})"
    )
    assert db_i.physical_state() == db_v.physical_state(), (
        f"backend final state diverged ({label})"
    )
    assert res_i.seconds == res_v.seconds, (
        f"simulated clock diverged ({label})"
    )


def _run_tm1(backend: str, n: int, strategy: str):
    db = tm1.build_database(_TM1_SF, seed=3)
    engine = GPUTx(
        db,
        procedures=tm1.PROCEDURES,
        options=EngineOptions(backend=backend),
    )
    engine.submit_many(tm1.generate_transactions(db, n, seed=5))
    return db, engine, engine.run_bulk(strategy=strategy)


def backend_speedup() -> FigureResult:
    """BACKEND-1: both backends, identical simulated figures."""
    rows = []
    headline_ktps = 0.0
    for n_raw in _SIZES:
        n = scaled(n_raw)
        for strategy in _STRATEGIES:
            db_i, _eng_i, res_i = _run_tm1("interpreted", n, strategy)
            db_v, eng_v, res_v = _run_tm1("vectorized", n, strategy)
            # Asserted on every row (smoke lane included).
            assert_backends_agree(
                f"{strategy}, n={n}", (db_i, res_i), (db_v, res_v)
            )
            if strategy == "kset":
                headline_ktps = max(headline_ktps, res_v.throughput_ktps)
            rows.append(
                (
                    n,
                    strategy,
                    res_i.strategy,
                    res_v.backend,
                    eng_v.backend.waves_vectorized,
                    eng_v.backend.waves_interpreted,
                    res_v.throughput_ktps,
                )
            )
    return FigureResult(
        figure_id="BACKEND-1",
        title="Vectorized backend: identical outcomes and simulated clock (TM1)",
        columns=[
            "bulk",
            "strategy",
            "chosen",
            "path",
            "waves_vectorized",
            "waves_interpreted",
            "sim_ktps",
        ],
        rows=rows,
        notes=[
            "Every row asserts byte-identical outcomes, final physical "
            "state, and simulated clock across backends; only the host "
            "clock differs.",
            "The host-clock ratio lives in the host benchmark "
            "(benchmarks/host: core.backends.vec_over_interp, host_tps).",
        ],
        headline=("vector_sim_ktps", headline_ktps),
    )


def backend_fallback() -> FigureResult:
    """BACKEND-2: per-wave fallback keeps results identical."""
    rows = []

    def run_case(case: str, layout: str, procedures, specs):
        results = {}
        for backend in ("interpreted", "vectorized"):
            db = micro.build_database(scaled(96), layout=layout)
            engine = GPUTx(
                db,
                procedures=procedures,
                options=EngineOptions(backend=backend),
            )
            engine.submit_many(specs)
            result = engine.run_bulk(strategy="kset")
            results[backend] = (db, engine, result)
        db_i, _eng_i, res_i = results["interpreted"]
        db_v, eng_v, res_v = results["vectorized"]
        identical = (
            _outcomes(res_i) == _outcomes(res_v)
            and db_i.physical_state() == db_v.physical_state()
            and res_i.seconds == res_v.seconds
        )
        backend_obj = eng_v.backend
        rows.append(
            (
                case,
                backend_obj.waves_vectorized,
                backend_obj.waves_interpreted,
                identical,
            )
        )

    n = scaled(96)
    specs = micro.generate_transactions(n, n_tuples=n, n_branches=4, seed=9)
    run_case("column+vector-forms", "column", micro.build_procedures(4), specs)
    run_case("row-layout", "row", micro.build_procedures(4), specs)
    stripped = [
        dataclasses.replace(t, vector_body=None)
        for t in micro.build_procedures(4)
    ]
    run_case("no-vector-form", "column", stripped, specs)
    return FigureResult(
        figure_id="BACKEND-2",
        title="Vectorized backend: per-wave fallback coverage",
        columns=["case", "waves_vectorized", "waves_interpreted", "identical"],
        rows=rows,
        notes=[
            "Waves the vectorized backend cannot express (row-layout "
            "store, types without a vector form) run through the "
            "interpreter; outcomes, state, and simulated clock stay "
            "identical either way.",
        ],
    )


#: Registry for the CI perf-trajectory lane (see repro.bench.harness).
FIGURES = {
    "BACKEND-1": backend_speedup,
    "BACKEND-2": backend_fallback,
}
