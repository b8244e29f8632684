"""Property-based TPL equivalence: closed-form lock schedule vs. interpreter.

The vectorized backend derives TPL's counter-lock pass rounds in closed
form (repro.core.backends.lockstep) instead of spinning round by round.
The interpreter stays the oracle: for hypothesis-random bulks over
TM1/TPC-C/SmallBank, over micro (whose hand-written pairs are the one
built-in reference not derived from a single-source kernel) and over
abort-inducing bank mixes (non-two-phase aborters -> undo logs +
Appendix D cascades), both backends must agree on *everything
observable*:

* per-transaction outcomes (commit/abort, reason, value),
* the deferral sets and the cascaded-abort sets,
* the simulated clock and every per-SM KernelStats figure,
* the final ``Database.physical_state()``.

The suite forces tpl directly, reaches it through part's tpl-fallback
(cross-partition transactions), and runs types without a vector form
lane by lane. It also pins the other end of the
scheduler: a K-SET wave *is* the locked launch whose plans are all
empty, on both backends.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineOptions, GPUTx
from repro.workloads import micro, smallbank, tm1, tpcc

from tests.conftest import (
    BANK_PROCEDURES,
    BANK_VECTOR_PROCEDURES,
    build_bank_db,
)
from tests.property.test_backend_equivalence import (
    _smallbank_db,
    _smallbank_specs,
    _tm1_specs,
    _tpcc_db,
    _tpcc_specs,
    TM1_SUBS,
)

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
    "threads_aborted",
)

BANK_ACCOUNTS = 6  # tiny account pool -> long reader runs + lock queues

# Enough tuples that a round grants wider same-type sub-waves than
# ``wave.NARROW_WIDTH``, so the hand-written vector bodies run too.
MICRO_TUPLES = 64
MICRO_BRANCHES = 2
MICRO_PROCEDURES = micro.build_procedures(
    MICRO_BRANCHES, x=1
) + micro.build_pair_procedures(MICRO_BRANCHES, x=1)


def _micro_db():
    return micro.build_database(MICRO_TUPLES, with_index=True)


@st.composite
def _micro_specs(draw):
    """Alpha-skewed one-tuple transactions (an ``alpha`` share lock
    tuple 0, so their grants queue) shuffled among pair transactions,
    whose lock sets hold two items. A few drawn edge pairs add the
    one-item lock set (``a == b``), the hot tuple and the abort path
    (``MICRO_TUPLES`` names no tuple)."""
    seed = draw(st.integers(0, 2**16))
    singles = micro.generate_transactions(
        draw(st.integers(1, 60)),
        n_tuples=MICRO_TUPLES,
        n_branches=MICRO_BRANCHES,
        alpha=draw(st.sampled_from([0.3, 0.7, 0.95])),
        seed=seed,
    )
    pairs = micro.generate_pair_transactions(
        draw(st.integers(1, 30)),
        n_tuples=MICRO_TUPLES,
        shard_of=lambda key: key % 2,
        cross_shard_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        n_branches=MICRO_BRANCHES,
        seed=seed,
    )
    item = st.sampled_from([0, 1, MICRO_TUPLES])
    edges = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [f"micro_pair_{b}" for b in range(MICRO_BRANCHES)]
                ),
                st.tuples(item, item),
            ),
            max_size=6,
        )
    )
    return draw(st.permutations(singles + pairs + edges))


def _bank_specs():
    account = st.integers(0, BANK_ACCOUNTS - 1)
    deposit = st.tuples(
        st.just("deposit"), st.tuples(account, st.integers(1, 50))
    )
    transfer = st.tuples(
        st.just("transfer"),
        st.tuples(account, account, st.integers(1, 200)),
    )
    audit = st.tuples(st.just("audit"), st.tuples(account))
    # fail=1 aborts *after* writing (not two-phase): undo logs plus the
    # Appendix D cascade through the T-dependency sub-DAG.
    risky = st.tuples(
        st.just("risky"),
        st.tuples(account, st.integers(1, 20), st.integers(0, 1)),
    )
    return st.lists(
        st.one_of(deposit, transfer, audit, risky), min_size=1, max_size=40
    )


def _run(build_db, procedures, specs, backend, strategy,
         waves_as_locked=False, **options):
    db = build_db()
    engine = GPUTx(
        db, procedures=procedures, options=EngineOptions(backend=backend)
    )
    if waves_as_locked:
        launch_locked = engine.backend.launch_locked
        engine.backend.launch_wave = lambda executor, txns: launch_locked(
            executor, txns, [[]] * len(txns), None
        )
    engine.submit_many(specs)
    bulks = [engine.run_bulk(strategy=strategy, **options)]
    while len(engine.pool):
        bulks.append(engine.run_bulk(strategy=strategy, **options))
    observable = [
        (
            [(r.txn_id, r.committed, r.abort_reason, r.value)
             for r in b.results],
            sorted(t.txn_id for t in b.deferred),
            b.seconds,
            list(b.cascaded_aborts),
        )
        for b in bulks
    ]
    stats = [
        (
            tuple(getattr(rep.stats, f) for f in STATS_FIELDS),
            rep.timing,
            rep.outcomes,
        )
        for b in bulks
        for rep in (b.kernel_reports or [])
    ]
    return db.physical_state(), observable, stats


def _assert_equivalent(build_db, procedures, specs, strategy, **options):
    state_i, obs_i, stats_i = _run(
        build_db, procedures, specs, "interpreted", strategy, **options
    )
    state_v, obs_v, stats_v = _run(
        build_db, procedures, specs, "vectorized", strategy, **options
    )
    assert obs_i == obs_v
    assert stats_i == stats_v
    assert state_i == state_v


class TestWorkloadTpl:
    """Forced TPL over the three acceptance workloads."""

    @settings(max_examples=35, deadline=None)
    @given(specs=_tm1_specs())
    def test_tm1(self, specs):
        _assert_equivalent(
            lambda: tm1.build_database(1, subscribers_per_sf=TM1_SUBS, seed=3),
            tm1.PROCEDURES,
            specs,
            "tpl",
        )

    @settings(max_examples=25, deadline=None)
    @given(specs=_tpcc_specs())
    def test_tpcc(self, specs):
        _assert_equivalent(_tpcc_db, tpcc.PROCEDURES, specs, "tpl")

    @settings(max_examples=35, deadline=None)
    @given(specs=_smallbank_specs())
    def test_smallbank(self, specs):
        _assert_equivalent(_smallbank_db, smallbank.PROCEDURES, specs, "tpl")

    @settings(max_examples=30, deadline=None)
    @given(specs=_micro_specs())
    def test_micro(self, specs):
        _assert_equivalent(_micro_db, MICRO_PROCEDURES, specs, "tpl")

    @settings(max_examples=15, deadline=None)
    @given(specs=_micro_specs())
    def test_micro_part_reaches_tpl_fallback(self, specs):
        """A pair over two tuples is cross-partition, so PART hands the
        bulk to TPL on the same backend."""
        specs = list(specs) + [("micro_pair_0", (1, 2))]
        _assert_equivalent(_micro_db, MICRO_PROCEDURES, specs, "part")

    @settings(max_examples=15, deadline=None)
    @given(specs=_smallbank_specs(), passes=st.sampled_from([1, 2]))
    def test_smallbank_grouped(self, specs, passes):
        """Type grouping (Appendix D) permutes thread order; the
        schedule must still match the interpreter's exactly."""
        _assert_equivalent(
            _smallbank_db, smallbank.PROCEDURES, specs, "tpl",
            grouping_passes=passes,
        )


class TestAbortMixes:
    """Non-two-phase aborters: undo capture + cascaded rollback."""

    @settings(max_examples=50, deadline=None)
    @given(specs=_bank_specs())
    def test_bank_abort_heavy_tpl(self, specs):
        _assert_equivalent(
            lambda: build_bank_db(BANK_ACCOUNTS),
            BANK_VECTOR_PROCEDURES,
            specs,
            "tpl",
        )

    @settings(max_examples=25, deadline=None)
    @given(specs=_bank_specs())
    def test_bank_part_reaches_tpl_fallback(self, specs):
        """Bulks with a cross-partition transfer force part's
        tpl-fallback; the delegated executor must use the same
        backend (and stay byte-identical)."""
        specs = list(specs) + [("transfer", (0, BANK_ACCOUNTS - 1, 10))]
        _assert_equivalent(
            lambda: build_bank_db(BANK_ACCOUNTS),
            BANK_VECTOR_PROCEDURES,
            specs,
            "part",
        )


class TestWaveIsTheLockFreeLaunch:
    """``launch_locked(txns, [[]] * n, None)`` equals
    ``launch_wave(txns)`` field by field -- kernel stats, timing,
    per-thread outcomes (undo logs included), physical state -- on the
    interpreter and on the vectorized backend, whose two launches share
    one scheduler. Every 0-set of a K-SET run is one such pair."""

    def _assert_same_launch(self, build_db, procedures, specs):
        for backend in ("interpreted", "vectorized"):
            wave = _run(build_db, procedures, specs, backend, "kset")
            locked = _run(
                build_db, procedures, specs, backend, "kset",
                waves_as_locked=True,
            )
            assert wave == locked

    @settings(max_examples=15, deadline=None)
    @given(specs=_tm1_specs())
    def test_tm1(self, specs):
        self._assert_same_launch(
            lambda: tm1.build_database(1, subscribers_per_sf=TM1_SUBS, seed=3),
            tm1.PROCEDURES,
            specs,
        )

    @settings(max_examples=10, deadline=None)
    @given(specs=_tpcc_specs())
    def test_tpcc(self, specs):
        self._assert_same_launch(_tpcc_db, tpcc.PROCEDURES, specs)

    @settings(max_examples=15, deadline=None)
    @given(specs=_smallbank_specs())
    def test_smallbank(self, specs):
        self._assert_same_launch(_smallbank_db, smallbank.PROCEDURES, specs)

    @settings(max_examples=10, deadline=None)
    @given(specs=_micro_specs())
    def test_micro(self, specs):
        self._assert_same_launch(_micro_db, MICRO_PROCEDURES, specs)

    @settings(max_examples=15, deadline=None)
    @given(specs=_bank_specs())
    def test_bank_undo_capturing_aborters(self, specs):
        self._assert_same_launch(
            lambda: build_bank_db(BANK_ACCOUNTS), BANK_VECTOR_PROCEDURES, specs
        )


class TestTypesWithoutVectorForm:
    @settings(max_examples=20, deadline=None)
    @given(specs=_bank_specs())
    def test_lane_by_lane_identical(self, specs):
        """The bank set with and without vector forms: the vectorized
        backend runs both (the stream-only one lane by lane), and every
        observable matches the interpreter."""
        base = _run(
            lambda: build_bank_db(BANK_ACCOUNTS),
            BANK_VECTOR_PROCEDURES,
            specs,
            "interpreted",
            "tpl",
        )
        for procedures in (BANK_VECTOR_PROCEDURES, BANK_PROCEDURES):
            got = _run(
                lambda: build_bank_db(BANK_ACCOUNTS),
                procedures,
                specs,
                "vectorized",
                "tpl",
            )
            assert got == base
