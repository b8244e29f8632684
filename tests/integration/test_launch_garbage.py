"""A vectorized launch leaves no reference cycles behind.

Everything a launch builds -- its trace recorder, its wave store and
the staged inserts, overlays and handle map the store holds -- should
be freed by reference counting when the launch returns. A cycle among
them (a closure that calls itself, say) keeps the whole store alive
until the cyclic collector runs, which then runs more often and walks
more. One bulk per strategy warms the process up first: imports and
first-use caches may make cycles once.
"""

import gc

import pytest

from repro import EngineOptions, GPUTx
from repro.workloads import smallbank, tm1, tpcb, tpcc


CASES = {
    "part": (tpcb, lambda: tpcb.build_database(16, accounts_per_branch=20), 400),
    "auto": (tm1, lambda: tm1.build_database(1), 400),
    "kset": (smallbank, lambda: smallbank.build_database(1), 400),
    "tpl": (tpcc, lambda: tpcc.build_database(2), 100),
}


def _drain(module, build, n, strategy, seed):
    db = build()
    engine = GPUTx(
        db, procedures=module.PROCEDURES,
        options=EngineOptions(backend="vectorized"),
    )
    engine.submit_many(module.generate_transactions(db, n, seed=seed))
    while len(engine.pool):
        engine.run_bulk(strategy=strategy)


@pytest.mark.parametrize("strategy", sorted(CASES))
def test_a_launch_frees_what_it_builds(strategy):
    module, build, n = CASES[strategy]
    _drain(module, build, n, strategy, seed=3)
    gc.collect()
    gc.disable()
    try:
        _drain(module, build, n, strategy, seed=4)
        assert gc.collect() == 0
    finally:
        gc.enable()
