"""The simulated clock depends on the bulk, not on the process's past.

Two passes of the same bulks in one process, with an unrelated TM1
bulk between them, on the vectorized backend: a SmallBank K-SET bulk
at zipfian skew 0.9 and a TPC-C TPL bulk. Any state a launch leaves
behind that a later launch reads (a cache keyed on a table, a memo on a
module, a recorder or store reused across launches) would show as a
different ``result.seconds`` in the second pass.
"""

from repro import EngineOptions, GPUTx
from repro.workloads import smallbank, tm1, tpcc


def _seconds(module, db, n, strategy, **gen):
    engine = GPUTx(
        db, procedures=module.PROCEDURES,
        options=EngineOptions(backend="vectorized"),
    )
    engine.submit_many(module.generate_transactions(db, n, seed=5, **gen))
    return engine.run_bulk(strategy=strategy).seconds


def _pass():
    return (
        _seconds(smallbank, smallbank.build_database(1), 2000, "kset", theta=0.9),
        _seconds(tpcc, tpcc.build_database(4), 400, "tpl"),
    )


def test_a_bulk_costs_the_same_after_other_bulks():
    first = _pass()
    _seconds(tm1, tm1.build_database(1), 1000, "part")
    assert _pass() == first
