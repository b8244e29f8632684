"""Execution backends: options, exact equivalence, no fallback.

The vectorized backend's contract is *byte-identical everything*:
outcomes, final physical state, and every simulated-clock figure down
to the per-SM KernelStats fields. These tests pin that contract on
small deterministic workloads; the hypothesis suite
(tests/property/test_backend_equivalence.py) fuzzes it.
"""

import dataclasses

import numpy as np
import pytest

from repro import ConfigError, EngineOptions, GPUTx
from repro.core.backends import (
    BACKENDS,
    InterpretedBackend,
    VectorizedBackend,
)
from repro.core.chooser import ChooserThresholds
from repro.core.oparray import OpArray
from repro.gpu.costmodel import GpuCostModel
from repro.gpu.spec import C1060
from repro.workloads import micro, tm1

from tests.conftest import BANK_PROCEDURES, build_bank_db

STATS_FIELDS = (
    "issue_cycles",
    "mem_transactions",
    "mem_instructions",
    "mem_bytes",
    "atomic_cycles",
    "resident_warps",
    "ops_executed",
    "divergent_serializations",
    "spin_iterations",
    "atomic_conflicts",
    "rounds",
    "threads_launched",
)


def _engine(db, procedures, backend, **kwargs):
    return GPUTx(
        db,
        procedures=procedures,
        options=EngineOptions(backend=backend),
        **kwargs,
    )


def run_both(build_db, procedures, specs, strategy, drain=False, **options):
    """Run the same bulk under both backends; return (db, results) per."""
    out = []
    for backend in ("interpreted", "vectorized"):
        db = build_db()
        engine = _engine(db, procedures, backend)
        engine.submit_many(specs)
        results = [engine.run_bulk(strategy=strategy, **options)]
        while drain and len(engine.pool):
            results.append(engine.run_bulk(strategy=strategy, **options))
        out.append((db, results, engine))
    return out


def assert_identical(interp, vector):
    (db_i, res_i, _), (db_v, res_v, _) = interp, vector
    assert len(res_i) == len(res_v)
    for ri, rv in zip(res_i, res_v):
        assert [
            (r.txn_id, r.committed, r.abort_reason, r.value)
            for r in ri.results
        ] == [
            (r.txn_id, r.committed, r.abort_reason, r.value)
            for r in rv.results
        ]
        assert [t.txn_id for t in ri.deferred] == [
            t.txn_id for t in rv.deferred
        ]
        assert ri.seconds == rv.seconds
        assert ri.breakdown.phases == rv.breakdown.phases
        for ki, kv in zip(ri.kernel_reports, rv.kernel_reports):
            for field in STATS_FIELDS:
                assert getattr(ki.stats, field) == getattr(kv.stats, field), field
            assert ki.aborted_count == kv.aborted_count
            assert ki.timing.cycles == kv.timing.cycles
            assert ki.timing.seconds == kv.timing.seconds
            assert ki.timing.bound == kv.timing.bound
    assert db_i.physical_state() == db_v.physical_state()


class TestRegistryAndOptions:
    def test_both_builtin_backends_registered(self):
        assert BACKENDS == {
            "interpreted": InterpretedBackend,
            "vectorized": VectorizedBackend,
        }

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="unknown execution backend"):
            EngineOptions(backend="cuda")

    def test_create_backend_resolves_names(self):
        for name, cls in BACKENDS.items():
            engine = GPUTx(
                build_bank_db(8),
                procedures=BANK_PROCEDURES,
                options=EngineOptions(backend=name),
            )
            assert type(engine.backend) is cls

    def test_engine_defaults_to_interpreted(self):
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        assert engine.backend.name == "interpreted"
        assert engine.options.backend == "interpreted"

    def test_rebuild_on_preserves_backend(self):
        engine = _engine(
            micro.build_database(32), micro.build_procedures(2), "vectorized"
        )
        twin = engine.rebuild_on(micro.build_database(32))
        assert twin.backend.name == "vectorized"
        assert twin.options == engine.options

    def test_lock_strategies_vectorize(self):
        """TPL routes through the vectorized backend: counter-lock
        pass rounds are derived in closed form (lockstep)."""
        db = micro.build_database(64)
        engine = GPUTx(
            db,
            procedures=micro.build_procedures(2),
            options=EngineOptions(backend="vectorized"),
        )
        engine.submit_many(
            micro.generate_transactions(24, n_tuples=64, n_branches=2)
        )
        result = engine.run_bulk(strategy="tpl")
        assert result.backend == "vectorized"
        assert result.committed == 24
        assert engine.backend.waves_vectorized > 0


class TestExactEquivalence:
    def test_tm1_kset_identical(self):
        db0 = tm1.build_database(1, seed=3)
        specs = tm1.generate_transactions(db0, 250, seed=5)
        interp, vector = run_both(
            lambda: tm1.build_database(1, seed=3),
            tm1.PROCEDURES,
            specs,
            "kset",
        )
        assert_identical(interp, vector)
        assert vector[2].backend.waves_vectorized > 0

    def test_staged_delete_restores_real_row_shadow(self):
        """Deleting a staged insert whose unique key shadows a
        same-wave real-row delete must keep the key absent: the fold
        of the staged insert discards the real row's del marker, and
        the staged delete must restore it (a later probe would
        otherwise resurrect the deleted real row and double-delete)."""
        db0 = tm1.build_database(1, subscribers_per_sf=8, seed=3)
        cf = db0.table("call_forwarding")
        key = (
            int(cf.read("s_id", 0)),
            int(cf.read("sf_type", 0)),
            int(cf.read("start_time", 0)),
        )
        specs = [
            ("tm1_delete_call_forwarding", key),   # deletes the real row
            ("tm1_insert_call_forwarding", key + (20, "x" * 15)),
            ("tm1_delete_call_forwarding", key),   # deletes the staged row
            ("tm1_delete_call_forwarding", key),   # must abort: key gone
        ]
        interp, vector = run_both(
            lambda: tm1.build_database(1, subscribers_per_sf=8, seed=3),
            tm1.PROCEDURES,
            specs,
            "part",
        )
        assert_identical(interp, vector)
        assert not interp[1][0].results[3].committed

    @pytest.mark.parametrize("partition_size", [1, 8])
    def test_tm1_part_identical(self, partition_size):
        db0 = tm1.build_database(1, seed=3)
        # Mutation-heavy mix: inserts/deletes exercise event ordering.
        mix = [
            ("tm1_get_new_destination", 30.0),
            ("tm1_insert_call_forwarding", 35.0),
            ("tm1_delete_call_forwarding", 35.0),
        ]
        specs = tm1.generate_transactions(db0, 250, seed=7, mix=mix)
        interp, vector = run_both(
            lambda: tm1.build_database(1, seed=3),
            tm1.PROCEDURES,
            specs,
            "part",
            partition_size=partition_size,
        )
        assert_identical(interp, vector)

    def test_micro_streaming_kset_deferrals_identical(self):
        """Streaming K-SET (max_rounds) defers blocked work; the
        deferral sets and every later bulk must match."""
        specs = micro.generate_transactions(
            200, n_tuples=64, alpha=0.5, seed=21
        )
        interp, vector = run_both(
            lambda: micro.build_database(64),
            micro.build_procedures(),
            specs,
            "kset",
            drain=True,
            max_rounds=2,
        )
        assert len(interp[1]) > 1  # the deferral path actually ran
        assert_identical(interp, vector)

    def test_micro_pair_kset_identical(self):
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 128, size=(150, 2))
        specs = [
            (f"micro_pair_{i % 4}", (int(a), int(b)))
            for i, (a, b) in enumerate(pairs)
        ]
        interp, vector = run_both(
            lambda: micro.build_database(128, with_index=True),
            micro.build_pair_procedures(4),
            specs,
            "kset",
        )
        assert_identical(interp, vector)


class TestNoFallback:
    """The vectorized backend runs every launch it is given."""

    def test_types_without_vector_form_run_vectorized(self):
        db = build_bank_db(16)
        engine = GPUTx(
            db,
            procedures=BANK_PROCEDURES,
            options=EngineOptions(backend="vectorized"),
        )
        for i in range(12):
            engine.submit("deposit", (i % 16, 5))
        result = engine.run_bulk(strategy="kset")
        assert result.committed == 12
        assert result.backend == "vectorized"
        assert engine.backend.waves_vectorized > 0

    def test_strict_vector_is_a_bool_without_behaviour(self):
        runs = []
        for strict in (False, True):
            engine = GPUTx(
                build_bank_db(16),
                procedures=BANK_PROCEDURES,
                options=EngineOptions(backend="vectorized", strict_vector=strict),
            )
            engine.submit("deposit", (1, 5))
            runs.append(engine.run_bulk(strategy="kset"))
        assert [r.backend for r in runs] == ["vectorized"] * 2
        assert runs[0].seconds == runs[1].seconds


class TestAutoTakesNoOptions:
    """"auto" refuses a strategy option on either backend, before the
    pool is drained; the strategy named with it takes it. (It used to
    be dropped with a warning, deduplicated per engine.)"""

    def _engine(self, backend):
        engine = _engine(
            micro.build_database(32), micro.build_procedures(2), backend
        )
        engine.submit_many(
            micro.generate_transactions(8, n_tuples=32, n_branches=2)
        )
        return engine

    @pytest.mark.parametrize("backend", ["interpreted", "vectorized"])
    def test_auto_refuses_the_option(self, backend):
        engine = self._engine(backend)
        with pytest.raises(ConfigError, match="'partition_size': \\['part'"):
            engine.run_bulk(strategy="auto", partition_size=4)
        assert len(engine.pool) == 8

    def test_the_named_strategy_takes_it_on_both_backends(self):
        specs = micro.generate_transactions(8, n_tuples=32, n_branches=2)
        interp, vector = run_both(
            lambda: micro.build_database(32), micro.build_procedures(2),
            specs, "part", partition_size=4,
        )
        assert_identical(interp, vector)
        assert interp[1][0].strategy == "part"


class TestResultBackend:
    """``ExecutionResult.backend`` names the path that ran the bulk."""

    def _micro_engine(self, n_tuples=64, **options):
        engine = GPUTx(
            micro.build_database(n_tuples),
            procedures=micro.build_procedures(2),
            options=EngineOptions(**options),
        )
        engine.submit_many(
            micro.generate_transactions(32, n_tuples=n_tuples, n_branches=2)
        )
        return engine

    def test_vectorized_bulk(self):
        engine = self._micro_engine(backend="vectorized")
        assert engine.run_bulk(strategy="kset").backend == "vectorized"

    def test_interpreted_bulk(self):
        engine = self._micro_engine(backend="interpreted")
        assert engine.run_bulk(strategy="kset").backend == "interpreted"

    def test_type_without_vector_form_is_vectorized(self):
        # 32 vectorizable transactions over 4 tuples, then two of a
        # type without a vector form on tuple 0: every 0-set of the
        # bulk runs on the vectorized backend.
        engine = self._micro_engine(n_tuples=4, backend="vectorized")
        engine.register(
            dataclasses.replace(
                engine.registry.get("micro_0"),
                name="scalar_only",
                vector_body=None,
            )
        )
        engine.submit_many([("scalar_only", (0,))] * 2)
        result = engine.run_bulk(strategy="kset")
        assert engine.backend.waves_vectorized > 0
        assert result.backend == "vectorized"

    def test_launches_outside_execute_bulk_do_not_leak_in(self):
        engine = self._micro_engine(backend="vectorized")
        batch = engine.pool.take(16)
        engine.make_executor("kset").execute(
            batch, OpArray.of_bulk(engine.registry, batch)
        )
        assert engine.backend.waves_vectorized > 0
        assert engine.run_bulk(strategy="adhoc").backend == "interpreted"


class TestArrayForms:
    def test_coalesce_groups_matches_scalar_coalesce(self):
        cost = GpuCostModel(C1060)
        rng = np.random.default_rng(7)
        n_groups = 17
        group_idx = rng.integers(0, n_groups, size=300)
        addresses = rng.integers(0, 1 << 40, size=300)
        widths = rng.choice([1, 4, 8, 15], size=300)
        # A warp-group access applies one width to all lanes.
        group_width = np.array(
            [widths[group_idx == g][-1] if (group_idx == g).any() else 8
             for g in range(n_groups)]
        )
        ntx = cost.coalesce_groups(
            group_idx, addresses, group_width[group_idx], n_groups
        )
        for g in range(n_groups):
            members = addresses[group_idx == g]
            expected = cost.coalesce(list(members), int(group_width[g]))
            assert ntx[g] == expected
