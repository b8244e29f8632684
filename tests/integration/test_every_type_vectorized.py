"""The vectorized backend runs every type it is given.

The paper combines every registered procedure into one kernel with a
switch clause (Sections 3.1-3.2): a launch runs whatever types it
holds. So does ``VectorizedBackend``: a type without a vector form runs
lane by lane through its op stream (``run_lane``) at any width, and on
the PART sweep a type that needs undo logging rolls back inline, as
the PART wrapper does. This file pins:

* a structural guard: nothing the vectorized backend launches through
  (its own methods and the lockstep, wave, replay and lane modules)
  reaches an interpreter launch, with a self-check that the walk
  catches a planted call;
* a differential check: micro and TM1 with ``vector_body`` stripped
  and the test bank set (with and without vector forms), under K-SET,
  PART and TPL, at lane counts
  either side of ``NARROW_WIDTH``, give the interpreter's outcomes,
  ``physical_state()``, ``KernelStats``, seconds and redo stream;
* PART's inline rollback of a type that deletes, inserts, writes the
  row it inserted and then aborts: the aborted transaction's staged
  inserts and deletes come back as the partition's cancel lists;
* a row-layout store is refused when a vectorized engine is built;
* an insert into a table the type does not declare in
  ``vector_inserts`` is refused, on every strategy.
"""

import ast
import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

from repro import ClusterOptions, ClusterTx, ConfigError, EngineOptions, GPUTx
from repro.core.backends import VectorizedBackend, lane, lockstep, replay, wave
from repro.core.backends.wave import NARROW_WIDTH
from repro.core.procedure import Access, TransactionType
from repro.gpu import ops as op_ir
from repro.workloads import micro, tm1, tpcb, tpcc

from tests.conftest import (
    BANK_PROCEDURES,
    BANK_VECTOR_PROCEDURES,
    build_bank_db,
)
from tests.integration.test_narrow_launch import assert_equivalent

#: What starts an interpreter launch: the base class's launch methods,
#: the SIMT engine's ``launch``, and the task builders it consumes.
TASK_BUILDERS = {"build_task", "locked_task", "partition_task"}


def interpreter_launches(source: str):
    """``(line, call)`` for every call in ``source`` that starts an
    interpreter launch: ``super().launch_*``, ``InterpretedBackend.
    launch_*``, ``<...>.engine.launch`` and the task builders."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        attr, owner = node.func.attr, node.func.value
        base = ast.unparse(owner)
        if attr.startswith("launch_") and base in (
            "super()", "InterpretedBackend"
        ):
            found.append((node.lineno, f"{base}.{attr}"))
        elif attr == "launch" and base.endswith("engine"):
            found.append((node.lineno, f"{base}.launch"))
        elif attr in TASK_BUILDERS:
            found.append((node.lineno, attr))
    return sorted(found)


class TestStructuralGuard:
    @pytest.mark.parametrize(
        "owner",
        [VectorizedBackend, lockstep, wave, replay, lane],
        ids=lambda o: o.__name__.rsplit(".", 1)[-1],
    )
    def test_no_interpreter_launch_is_reachable(self, owner):
        assert interpreter_launches(inspect.getsource(owner)) == []

    def test_every_launch_is_the_vectorized_backends_own(self):
        for name in ("launch_wave", "launch_locked", "launch_partitions"):
            assert name in VectorizedBackend.__dict__, name

    def test_the_walk_catches_a_planted_call(self):
        class Planted(VectorizedBackend):
            def launch_wave(self, executor, transactions):
                if not transactions:
                    return super().launch_wave(executor, transactions)
                tasks = [executor.build_task(t) for t in transactions]
                return executor.engine.launch(tasks, executor.adapter)

            def launch_partitions(self, executor, parts, boundary_cycles):
                return InterpretedBackend.launch_partitions(  # noqa: F821
                    self, executor, parts, boundary_cycles
                )

        assert [call for _line, call in interpreter_launches(
            inspect.getsource(Planted)
        )] == [
            "super().launch_wave",
            "build_task",
            "executor.engine.launch",
            "InterpretedBackend.launch_partitions",
        ]


# ---------------------------------------------------------------------------
# Differential: every type, every strategy, both sides of NARROW_WIDTH.
# ---------------------------------------------------------------------------
#: Lane counts either side of the lane-by-lane crossover.
SIZES = (3, 6, 40, 300)
assert SIZES[0] <= NARROW_WIDTH < SIZES[1]

#: The bank types PART runs as PART (``transfer`` is cross-partition).
PARTITION_LOCAL = ("deposit", "audit", "risky")


def _stripped(procedures):
    return [dataclasses.replace(t, vector_body=None) for t in procedures]


def _bank_specs(n, names):
    rng = np.random.default_rng(n)
    specs = []
    for _ in range(n):
        name = names[int(rng.integers(len(names)))]
        a = int(rng.integers(16))
        if name == "deposit":
            specs.append((name, (a, int(rng.integers(1, 50)))))
        elif name == "audit":
            specs.append((name, (a,)))
        elif name == "transfer":
            specs.append((name, (a, (a + 1) % 16, int(rng.integers(1, 150)))))
        else:
            specs.append((name, (a, 7, int(rng.integers(2)))))
    return specs


def _micro(n):
    return (
        lambda: micro.build_database(64),
        _stripped(micro.build_procedures(4)),
        micro.generate_transactions(
            n, n_tuples=64, n_branches=4, alpha=0.3, seed=n
        ),
    )


def _tm1(n):
    build = lambda: tm1.build_database(1, subscribers_per_sf=64, seed=3)  # noqa: E731
    return build, _stripped(tm1.PROCEDURES), tm1.generate_transactions(
        build(), n, seed=n
    )


def _bank(n, strategy, procedures=BANK_PROCEDURES):
    names = PARTITION_LOCAL if strategy == "part" else (
        "deposit", "transfer", "audit", "risky",
    )
    return lambda: build_bank_db(16), procedures, _bank_specs(n, names)


def _ran_part(reports):
    """PART's report has one outcome row per partition thread, whose
    type id is -1; its TPL fallback's rows carry real type ids."""
    return all(o.type_id == -1 for r in reports for o in r.outcomes)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("strategy", ["kset", "part", "tpl"])
class TestEveryTypeRunsVectorized:
    def test_micro_without_vector_form(self, strategy, n):
        reports = assert_equivalent(*_micro(n), strategy)
        assert strategy != "part" or _ran_part(reports)

    def test_tm1_without_vector_form(self, strategy, n):
        reports = assert_equivalent(*_tm1(n), strategy)
        assert strategy != "part" or _ran_part(reports)

    def test_bank_set(self, strategy, n):
        reports = assert_equivalent(*_bank(n, strategy), strategy)
        assert strategy != "part" or _ran_part(reports)

    def test_bank_set_with_vector_forms(self, strategy, n):
        """Every bank type needs undo logging (``risky`` is not two-
        phase): on PART it rolls back inline even with a vector form."""
        build, procedures, specs = _bank(n, strategy, BANK_VECTOR_PROCEDURES)
        reports = assert_equivalent(build, procedures, specs, strategy)
        assert strategy != "part" or _ran_part(reports)


# ---------------------------------------------------------------------------
# PART's inline rollback: cancel lists for staged inserts and deletes.
# ---------------------------------------------------------------------------
def _reroute(s_id, sf_type, start, new_start, fail):
    """Not two-phase: moves a call-forwarding row to a new start time,
    stamps the subscriber, then maybe aborts after all of it."""
    row = yield op_ir.IndexProbe("call_forwarding_pk", (s_id, sf_type, start))
    if row < 0:
        yield op_ir.Abort("no call forwarding")
    taken = yield op_ir.IndexProbe(
        "call_forwarding_pk", (s_id, sf_type, new_start)
    )
    if taken >= 0:
        yield op_ir.Abort("slot taken")
    end = yield op_ir.Read(tm1.CALL_FORWARDING, "end_time", row)
    yield op_ir.DeleteRow(tm1.CALL_FORWARDING, row)
    new = yield op_ir.InsertRow(
        tm1.CALL_FORWARDING, (s_id, sf_type, new_start, end, "x" * 15)
    )
    yield op_ir.Write(tm1.CALL_FORWARDING, "end_time", new, end + 1)
    sub = yield op_ir.IndexProbe("subscriber_pk", s_id)
    yield op_ir.Write(tm1.SUBSCRIBER, "vlr_location", sub, new_start)
    if fail:
        yield op_ir.Abort("reroute refused")
    return new_start


REROUTE = TransactionType(
    name="reroute",
    body=_reroute,
    access_fn=lambda p: [Access(int(p[0]), write=True)],
    partition_fn=lambda p: int(p[0]),
    two_phase=False,
    conflict_classes=frozenset({tm1.CALL_FORWARDING, tm1.SUBSCRIBER}),
    vector_inserts=frozenset({tm1.CALL_FORWARDING}),
)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("strategy", ["part", "kset", "tpl"])
def test_an_aborted_insert_and_delete_are_cancelled(strategy, n):
    """One transaction per (subscriber, facility): the PART wrapper
    cancels an aborted transaction's staged rows only after the whole
    partition ran, so a partition-mate must not touch them."""
    build = lambda: tm1.build_database(1, subscribers_per_sf=n, seed=3)  # noqa: E731
    cf = build().table(tm1.CALL_FORWARDING)
    rng = np.random.default_rng(n)
    keys = {}
    for i in rng.permutation(cf.n_rows).tolist():
        key = tuple(int(cf.read(c, i)) for c in ("s_id", "sf_type", "start_time"))
        keys.setdefault(key[:2], key)
    specs = []
    for key in list(keys.values())[:n]:
        if rng.random() < 0.3:
            specs.append(("tm1_delete_call_forwarding", key))
        else:
            new_start = int(rng.choice([0, 8, 16, 24]))
            specs.append(("reroute", key + (new_start, int(rng.random() < 0.5))))
    procedures = _stripped(tm1.PROCEDURES) + [REROUTE]
    reports = assert_equivalent(build, procedures, specs, strategy)
    assert strategy != "part" or _ran_part(reports)


# ---------------------------------------------------------------------------
# What a vectorized engine refuses.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("make", ["engine", "cluster"])
def test_row_layout_is_a_config_error(make):
    db = micro.build_database(32, layout="row")
    procedures = micro.build_procedures(2)
    options = EngineOptions(backend="vectorized")
    with pytest.raises(ConfigError, match="column-layout"):
        if make == "engine":
            GPUTx(db, procedures=procedures, options=options)
        else:
            ClusterTx(db, procedures, 2, options=ClusterOptions(engine=options))
    # The interpreter still runs a row-layout store.
    GPUTx(db, procedures=procedures)


UNDECLARED = {
    "tpcb": (
        lambda: tpcb.build_database(2, accounts_per_branch=16),
        tpcb.PROCEDURES,
        lambda db: tpcb.generate_transactions(db, 60, seed=5),
    ),
    "tm1": (
        lambda: tm1.build_database(1, subscribers_per_sf=64, seed=3),
        tm1.PROCEDURES,
        lambda db: tm1.generate_transactions(
            db, 60, seed=7, mix=[("tm1_insert_call_forwarding", 100.0)]
        ),
    ),
    "tpcc": (
        lambda: tpcc.build_database(1, seed=3),
        tpcc.PROCEDURES,
        lambda db: tpcc.generate_transactions(db, 60, seed=5),
    ),
}


@pytest.mark.parametrize("strategy", ["kset", "part", "tpl"])
@pytest.mark.parametrize("workload", sorted(UNDECLARED))
def test_an_undeclared_insert_is_refused(workload, strategy):
    build_db, procedures, generate = UNDECLARED[workload]
    undeclared = [
        dataclasses.replace(t, vector_inserts=frozenset()) for t in procedures
    ]
    db = build_db()
    engine = GPUTx(
        db, procedures=undeclared, options=EngineOptions(backend="vectorized")
    )
    engine.submit_many(generate(db))
    with pytest.raises(ValueError, match=r"inserts into table .* vector_inserts"):
        engine.run_bulk(strategy=strategy)
