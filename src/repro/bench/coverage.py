"""Workload-coverage benchmarks: the full suite on the fast path.

BACKEND-3 is the per-workload interpreted-vs-vectorized matrix: every
workload the repo can generate (micro, TM1, TPC-B, TPC-C, SmallBank)
runs the same bulk through both execution backends under K-SET, PART,
and (for the full TPC-C mix) columnar TPL, asserting byte-identical
outcomes, final physical state, and simulated clock on every row.
The ``vector_types`` column is the coverage contract: every
transaction type of every workload ships a vector kernel (the matrix
in docs/WORKLOADS.md), asserted in
``benchmarks/bench_workload_coverage.py``. The host-clock ratio of the
two backends is the host benchmark's
``core.backends.vec_over_interp`` row (``benchmarks/host``), not a
column of this simulated-clock registry.

SMALLBANK-1 sweeps the SmallBank zipfian skew knob across strategies:
skew deepens the T-dependency graph, K-SET degrades gracefully while
PART (whose two-customer transactions go cross-partition) falls back
to TPL -- the same contention story as the paper's Figure 6, told on
a workload with a full popularity tail.

Headline metrics come from the simulated clock (deterministic).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.bench.backend import assert_backends_agree
from repro.bench.harness import FigureResult, scaled
from repro.core.backends import EngineOptions
from repro.core.engine import GPUTx
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc

#: NewOrder-heavy TPC-C mix: the gated BACKEND-3 configuration.
NEW_ORDER_MIX = [("tpcc_new_order", 90.0), ("tpcc_payment", 10.0)]

#: SmallBank mix restricted to the four single-customer types, used
#: for the PART rows: the two-customer types are cross-partition, so
#: the full mix would measure PART's TPL fallback instead of PART.
SMALLBANK_LOCAL_MIX = [
    ("smallbank_balance", 25.0),
    ("smallbank_deposit_checking", 25.0),
    ("smallbank_transact_savings", 25.0),
    ("smallbank_write_check", 25.0),
]

#: SMALLBANK-1 skew sweep.
THETAS = (0.0, 0.6, 0.9, 1.2)


def _workload_cases() -> List[Tuple[str, Callable, list, list, List[str]]]:
    """(name, build_db, procedures, specs, strategies) per workload."""
    n = scaled(8_000)
    cases: List[Tuple[str, Callable, list, list, List[str]]] = []

    n_tuples = scaled(100_000)
    cases.append((
        "micro",
        lambda: micro.build_database(n_tuples),
        micro.build_procedures(),
        micro.generate_transactions(n, n_tuples=n_tuples, seed=5),
        ["kset", "part"],
    ))

    tm1_db = tm1.build_database(4, seed=3)
    cases.append((
        "tm1",
        lambda: tm1.build_database(4, seed=3),
        tm1.PROCEDURES,
        tm1.generate_transactions(tm1_db, n, seed=5),
        ["kset", "part"],
    ))

    branches = scaled(2_048)
    tpcb_db = tpcb.build_database(branches, accounts_per_branch=20)
    cases.append((
        "tpcb",
        lambda: tpcb.build_database(branches, accounts_per_branch=20),
        tpcb.PROCEDURES,
        tpcb.generate_transactions(tpcb_db, n, seed=5),
        ["kset", "part"],
    ))

    warehouses = max(2, scaled(64))
    tpcc_db = tpcc.build_database(warehouses, seed=3)
    cases.append((
        "tpcc-neworder",
        lambda: tpcc.build_database(warehouses, seed=3),
        tpcc.PROCEDURES,
        tpcc.generate_transactions(tpcc_db, n, seed=5, mix=NEW_ORDER_MIX),
        ["kset", "part"],
    ))
    cases.append((
        "tpcc-mix",
        lambda: tpcc.build_database(warehouses, seed=3),
        tpcc.PROCEDURES,
        tpcc.generate_transactions(tpcc_db, n, seed=5),
        ["kset", "tpl"],
    ))

    sb_db = smallbank.build_database(8, seed=3)
    cases.append((
        "smallbank",
        lambda: smallbank.build_database(8, seed=3),
        smallbank.PROCEDURES,
        smallbank.generate_transactions(sb_db, n, seed=5),
        ["kset"],
    ))
    cases.append((
        "smallbank-local",
        lambda: smallbank.build_database(8, seed=3),
        smallbank.PROCEDURES,
        smallbank.generate_transactions(
            sb_db, n, seed=5, mix=SMALLBANK_LOCAL_MIX
        ),
        ["part"],
    ))
    return cases


def _run(build_db, procedures, specs, backend: str, strategy: str):
    db = build_db()
    engine = GPUTx(
        db,
        procedures=procedures,
        options=EngineOptions(backend=backend),
    )
    engine.submit_many(list(specs))
    return db, engine, engine.run_bulk(strategy=strategy)


def workload_coverage() -> FigureResult:
    """BACKEND-3: every workload on both backends."""
    rows = []
    headline = 0.0
    for name, build_db, procedures, specs, strategies in _workload_cases():
        vector_types = sum(
            1 for t in procedures if t.vector_body is not None
        )
        coverage = f"{vector_types}/{len(procedures)}"
        for strategy in strategies:
            db_i, _eng_i, res_i = _run(
                build_db, procedures, specs, "interpreted", strategy
            )
            db_v, eng_v, res_v = _run(
                build_db, procedures, specs, "vectorized", strategy
            )
            # The contract, asserted on every row (smoke included).
            assert_backends_agree(
                f"{name}, {strategy}", (db_i, res_i), (db_v, res_v)
            )
            if name == "tpcc-mix" and strategy == "tpl":
                headline = res_v.throughput_ktps
            rows.append(
                (
                    name,
                    strategy,
                    len(specs),
                    coverage,
                    eng_v.backend.waves_vectorized,
                    res_v.throughput_ktps,
                )
            )
    return FigureResult(
        figure_id="BACKEND-3",
        title="Vectorized coverage: every workload on both backends",
        columns=[
            "workload",
            "strategy",
            "bulk",
            "vector_types",
            "waves_vec",
            "sim_ktps",
        ],
        rows=rows,
        notes=[
            "Every row asserts byte-identical outcomes, final physical "
            "state, and simulated clock across backends.",
            "vector_types is the coverage matrix of docs/WORKLOADS.md, "
            "asserted full in benchmarks/bench_workload_coverage.py.",
            "tpcc-mix runs the full five-type mix under K-SET and "
            "columnar TPL: the lock schedule is computed closed-form "
            "on the vectorized backend.",
            "smallbank-local restricts the mix to the single-customer "
            "types so the PART row measures PART, not its TPL "
            "fallback (the two-customer types are cross-partition).",
        ],
        headline=("tpcc_mix_sim_ktps", headline),
    )


def smallbank_skew() -> FigureResult:
    """SMALLBANK-1: throughput vs zipfian skew across strategies."""
    rows = []
    n = scaled(4_000)
    build_db = lambda: smallbank.build_database(4, seed=3)  # noqa: E731
    db0 = build_db()
    for theta in THETAS:
        specs = smallbank.generate_transactions(
            db0, n, seed=7, theta=theta
        )
        for strategy in ("kset", "part"):
            _db, _eng, result = _run(
                build_db, smallbank.PROCEDURES, specs, "vectorized",
                strategy,
            )
            rows.append(
                (
                    theta,
                    strategy,
                    result.strategy,
                    result.committed,
                    result.aborted,
                    result.throughput_ktps,
                )
            )
    return FigureResult(
        figure_id="SMALLBANK-1",
        title="SmallBank: throughput vs zipfian skew across strategies",
        columns=[
            "theta", "strategy", "chosen", "committed", "aborted", "ktps",
        ],
        rows=rows,
        notes=[
            "theta is the zipfian skew of customer choice (0 = "
            "uniform; ~1 = YCSB-like): skew deepens the T-dependency "
            "graph, so K-SET needs more waves per bulk.",
            "PART reports its chosen strategy: the two-customer types "
            "(amalgamate, send_payment) are cross-partition, so PART "
            "degrades to its TPL fallback on the full mix -- the "
            "Section 5.2 story on a contention-heavy workload.",
            "All rows run the vectorized backend; the simulated-clock "
            "throughput is deterministic and backend-independent.",
        ],
    )


#: Registry for the CI perf-trajectory lane (see repro.bench.harness).
FIGURES = {
    "BACKEND-3": workload_coverage,
    "SMALLBANK-1": smallbank_skew,
}
