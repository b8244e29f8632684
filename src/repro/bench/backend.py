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

BACKEND-2 pins that the vectorized backend runs every type it is
given: types without a vector form (lane by lane, under K-SET, TPL and
PART) and undo-logged types on PART (rolled back inline) run on it
with results identical to the interpreter's.
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


def every_type_vectorized() -> FigureResult:
    """BACKEND-2: every type runs vectorized, with identical results."""
    rows = []
    n = scaled(96)
    specs = micro.generate_transactions(n, n_tuples=n, n_branches=4, seed=9)
    forms = micro.build_procedures(4)
    cases = [
        ("vector-forms", "kset", forms),
        *(
            ("no-vector-form", strategy,
             [dataclasses.replace(t, vector_body=None) for t in forms])
            for strategy in ("kset", "tpl", "part")
        ),
        ("undo-logged", "part",
         [dataclasses.replace(t, two_phase=False) for t in forms]),
    ]
    for case, strategy, procedures in cases:
        runs = {}
        for backend in ("interpreted", "vectorized"):
            db = micro.build_database(n)
            engine = GPUTx(
                db,
                procedures=procedures,
                options=EngineOptions(backend=backend),
            )
            engine.submit_many(specs)
            runs[backend] = (db, engine, engine.run_bulk(strategy=strategy))
        db_i, _eng_i, res_i = runs["interpreted"]
        db_v, eng_v, res_v = runs["vectorized"]
        identical = (
            _outcomes(res_i) == _outcomes(res_v)
            and db_i.physical_state() == db_v.physical_state()
            and res_i.seconds == res_v.seconds
        )
        rows.append(
            (case, res_v.strategy, eng_v.backend.waves_vectorized, identical)
        )
    return FigureResult(
        figure_id="BACKEND-2",
        title="Vectorized backend: every type runs vectorized",
        columns=["case", "strategy", "waves_vectorized", "identical"],
        rows=rows,
        notes=[
            "The vectorized backend has no interpreter fallback: a type "
            "without a vector form runs lane by lane through its op "
            "stream, and an undo-logged type on PART rolls back inline "
            "as the PART wrapper does; outcomes, state, and simulated "
            "clock stay identical to the interpreter's.",
        ],
    )


#: Registry for the CI perf-trajectory lane (see repro.bench.harness).
FIGURES = {
    "BACKEND-1": backend_speedup,
    "BACKEND-2": every_type_vectorized,
}
