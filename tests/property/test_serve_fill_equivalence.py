"""The per-bulk serve loop against the per-arrival loop it replaced.

``ServeRuntime.run`` fills a bulk with one stream slice and keeps
latencies as per-bulk columns. The loop it replaced advanced the clock
one arrival instant per iteration and kept one latency record per
transaction; that loop lives on here, as :func:`reference_serve`, and
every observable of a run must equal it exactly -- floats with ``==``:
bulk cuts, admission counters, which pool ids went into which bulk,
commit/abort counts, and the latency and per-tenant summaries.

Arrival shapes are drawn to hit the cases where a closed-form fill
could diverge from stepping: ties at one instant, bursts, idle gaps
longer than ``max_form_wait_s``, a ``max_pending`` small enough to shed
in the middle of a fill, tenant quotas, per-shard caps on a 2-shard
cluster, and streaming K-SET bulks that hand part of the batch back.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterTx, GPUTx
from repro.serve import (
    AdaptiveBulkFormer,
    AdmissionController,
    ArrivalStream,
    FixedBulkFormer,
    ServeRuntime,
    SLOConfig,
)
from repro.serve.metrics import (
    EXECUTION,
    QUEUE,
    TOTAL,
    TRANSFER,
    BulkLatency,
    LatencySummary,
    Percentiles,
    percentile,
    split_service,
    tenant_summaries,
)
from repro.telemetry.metrics import Histogram, summarize
from tests.integration.test_online_serving import (
    LEDGER_PROCEDURES,
    build_ledger_db,
)

COMPONENTS = (QUEUE, EXECUTION, TRANSFER, TOTAL)
TENANTS = ("", "a", "b")


class RecordingEngine:
    """What the serve loop needs of a backend, plus a log of the pool
    ids of every bulk it was handed."""

    def __init__(self, engine):
        self.engine = engine
        self.pool = engine.pool
        self.registry = engine.registry
        self.batches = []

    def execute_bulk(self, batch, **options):
        self.batches.append([t.txn_id for t in batch])
        return self.engine.execute_bulk(batch, **options)


def list_summary(values):
    """(mean, p50, p95, p99, max) of a plain list, the way the
    per-transaction accounting computed it."""
    if not values:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    return (
        sum(values) / len(values),
        percentile(values, 50.0),
        percentile(values, 95.0),
        percentile(values, 99.0),
        max(values),
    )


def rows_summary(rows):
    """Per-component summaries of (submit, start, finish, exec,
    transfer, tenant) rows."""
    return {
        QUEUE: list_summary([r[1] - r[0] for r in rows]),
        EXECUTION: list_summary([r[3] for r in rows]),
        TRANSFER: list_summary([r[4] for r in rows]),
        TOTAL: list_summary([r[2] - r[0] for r in rows]),
    }


def reference_serve(engine, arrivals, former, admission, options):
    """The stepping loop: one arrival instant per iteration, one
    ``offer`` per arrival, one latency row per executed transaction."""
    stream, pool = ArrivalStream(arrivals), engine.pool
    clock = gpu_free = 0.0
    bulks, rows, counts = [], [], [0, 0, 0]

    def admit(until):
        for arrival in stream.pop_until(until):
            admission.offer(arrival, pool)

    while True:
        admit(clock)
        if len(pool) == 0:
            if stream.exhausted:
                break
            clock = max(clock, stream.peek_time())
            continue
        target = former.target_size()
        deadline = pool.peek(1)[0].submit_time + former.max_form_wait_s
        if (len(pool) < target and not stream.exhausted
                and stream.peek_time() <= deadline):
            clock = max(clock, stream.peek_time())
            continue
        start = max(clock, gpu_free)
        admit(start)
        batch = pool.take(target)
        result = engine.execute_bulk(batch, **options)
        finish = start + result.seconds
        exec_s, transfer_s = split_service(result.breakdown)
        submit_of = {t.txn_id: t.submit_time for t in batch}
        bulk_rows = [
            (submit_of[r.txn_id], start, finish, exec_s, transfer_s,
             admission.tenant_of(r.txn_id))
            for r in result.results
        ]
        rows.extend(bulk_rows)
        counts[0] += len(result.results)
        counts[1] += sum(1 for r in result.results if r.committed)
        counts[2] += sum(1 for r in result.results if not r.committed)
        bulks.append(
            (start, len(batch), len(result.results), target, result.strategy)
        )
        done = {r.txn_id for r in result.results}
        admission.note_executed([t for t in batch if t.txn_id in done])
        former.observe(
            size=len(batch), strategy=result.strategy,
            service_s=result.seconds,
            p95_total_s=percentile([r[2] - r[0] for r in bulk_rows], 95.0),
        )
        clock = gpu_free = finish
    by_tenant = {}
    for row in rows:
        if row[5]:
            by_tenant.setdefault(row[5], []).append(row)
    stats = admission.stats
    tenants = {
        tenant: (
            len(by_tenant.get(tenant, [])),
            stats.rejected_by_tenant.get(tenant, 0),
            rows_summary(by_tenant.get(tenant, [])),
        )
        for tenant in set(by_tenant) | set(stats.rejected_by_tenant)
    }
    return bulks, counts, len(rows), rows_summary(rows), tenants


def observed(report):
    """The same tuple, read off a ``ServeReport``."""

    def components(summary):
        return {
            name: dataclasses.astuple(summary[name]) for name in COMPONENTS
        }

    return (
        [(b.start_s, b.size, b.executed, b.target, b.strategy)
         for b in report.bulks],
        [report.executed, report.committed, report.aborted],
        report.latency.count,
        components(report.latency),
        {
            tenant: (summary.count, summary.shed, components(summary))
            for tenant, summary in report.tenants.items()
        },
    )


# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------
#: Gaps between consecutive arrivals: ties, a burst's spacing, a lull,
#: and an idle period longer than any max_form_wait_s drawn below.
GAPS = (0.0, 0.0, 0.0, 2e-6, 5e-5, 2e-2)


#: Few accounts, so bursts conflict and streaming K-SET defers.
N_HOT = 8


def _specs():
    account = st.integers(0, N_HOT - 1)
    deposit = st.tuples(st.just("deposit"), st.tuples(account, st.just(3)))
    audit = st.tuples(st.just("audit"), st.tuples(account))
    transfer = st.tuples(
        st.just("transfer"),
        st.tuples(account, account).map(
            lambda p: (p[0], p[1] if p[1] != p[0] else (p[0] + 1) % N_HOT, 2)
        ),
    )
    return st.one_of(deposit, audit, transfer)


def _arrivals():
    one = st.tuples(_specs(), st.sampled_from(GAPS), st.sampled_from(TENANTS))

    def stamp(items):
        clock, out = 0.0, []
        for (name, params), gap, tenant in items:
            clock += gap
            out.append((name, params, clock, tenant))
        return out

    # (hypothesis draws short lists unless told otherwise)
    return st.one_of(
        st.lists(one, max_size=8), st.lists(one, min_size=30, max_size=90)
    ).map(stamp)


#: Wait budgets, the infinite one included: an exhausted stream's
#: ``peek_time()`` is +inf too, and must not count as "fits the budget".
WAITS = (1e-5, 2e-4, 5e-3, float("inf"))


def _formers():
    adaptive = st.builds(
        lambda wait, lo: ("adaptive", wait, lo),
        st.sampled_from(WAITS), st.integers(1, 6),
    )
    fixed = st.builds(
        lambda wait, size: ("fixed", wait, size),
        st.sampled_from(WAITS), st.integers(1, 40),
    )
    return st.one_of(adaptive, fixed)


def _build_former(spec):
    kind, wait, size = spec
    if kind == "fixed":
        return FixedBulkFormer(size, max_form_wait_s=wait)
    return AdaptiveBulkFormer(
        SLOConfig(target_p95_s=1e-3, min_bulk=size, max_bulk=64,
                  max_form_wait_s=wait)
    )


def _configs():
    return st.fixed_dictionaries(
        {
            "max_pending": st.integers(1, 48),
            "quotas": st.one_of(
                st.none(),
                st.fixed_dictionaries(
                    {"a": st.integers(1, 6), "b": st.integers(1, 6)}
                ),
            ),
            "per_shard": st.integers(1, 6),
            "backend": st.sampled_from(
                ("engine", "streaming", "cluster", "cluster-capped")
            ),
        }
    )


def _build(config):
    db = build_ledger_db()
    kwargs = {
        "max_pending": config["max_pending"],
        "tenant_quotas": config["quotas"],
    }
    options = {"strategy": "auto"}
    if config["backend"] == "streaming":
        options = {"strategy": "kset", "max_rounds": 1}
    if not config["backend"].startswith("cluster"):
        engine = GPUTx(db, procedures=LEDGER_PROCEDURES)
    else:
        engine = ClusterTx(
            db, procedures=LEDGER_PROCEDURES, n_shards=2, router="hash"
        )
        if config["backend"] == "cluster-capped":
            kwargs.update(
                max_pending_per_shard=config["per_shard"],
                router=engine.router,
                registry=engine.registry,
            )
    return RecordingEngine(engine), AdmissionController(**kwargs), options


def _state(engine):
    holder = engine if isinstance(engine, ClusterTx) else engine.db
    return holder.logical_state()


@settings(max_examples=120, deadline=None)
@given(arrivals=_arrivals(), former=_formers(), config=_configs())
def test_run_matches_the_stepping_loop(arrivals, former, config):
    ref_engine, ref_admission, options = _build(config)
    expected = reference_serve(
        ref_engine, arrivals, _build_former(former), ref_admission, options
    )
    engine, admission, _ = _build(config)
    report = ServeRuntime(
        engine, former=_build_former(former), admission=admission, **options
    ).run(arrivals)

    assert observed(report) == expected
    assert engine.batches == ref_engine.batches
    assert dataclasses.asdict(report.admission) == dataclasses.asdict(
        ref_admission.stats
    )
    assert [t.txn_id for t in engine.pool] == [
        t.txn_id for t in ref_engine.pool
    ]
    assert _state(engine.engine) == _state(ref_engine.engine)


# ----------------------------------------------------------------------
# The array math under it.
# ----------------------------------------------------------------------
_seconds = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_seconds, min_size=1, max_size=200))
def test_array_summary_equals_list_math_bit_for_bit(values):
    """One sort and a left-to-right sum: not ``np.sum`` (pairwise) and
    not ``np.percentile`` (another interpolation formula)."""
    summary = summarize(np.array(values))
    assert summary["count"] == len(values)
    assert summary["sum"] == sum(values)
    assert (
        summary["mean"], summary["p50"], summary["p95"], summary["p99"],
        summary["max"],
    ) == list_summary(values)
    assert dataclasses.astuple(Percentiles.of(np.array(values))) == (
        list_summary(values)
    )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(_seconds, max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=3),
)
def test_observe_many_equals_a_loop_of_observe(values, cuts):
    looped, batched = Histogram("h"), Histogram("h")
    for value in values:
        looped.observe(value, lane=1)
    bounds = sorted({0, len(values), *[min(c, len(values)) for c in cuts]})
    for lo, hi in zip(bounds, bounds[1:]):
        # lists and ndarrays are both accepted
        chunk = values[lo:hi] if lo % 2 else np.array(values[lo:hi])
        batched.observe_many(chunk, lane=1)
    assert batched.values(lane=1) == looped.values(lane=1) == values
    assert batched.count(lane=1) == looped.count(lane=1) == len(values)
    assert batched.summary(lane=1) == looped.summary(lane=1)
    assert batched.series() == looped.series()


@settings(max_examples=100, deadline=None)
@given(
    bulks=st.lists(
        st.tuples(
            st.lists(st.tuples(_seconds, st.sampled_from(TENANTS)),
                     max_size=12),
            _seconds, _seconds, _seconds,
        ),
        max_size=6,
    )
)
def test_bulk_columns_equal_per_transaction_rows(bulks):
    columns, rows = [], []
    for members, wait, exec_s, transfer_s in bulks:
        submit = [s for s, _t in members]
        start = max(submit, default=0.0) + wait
        finish = start + exec_s + transfer_s
        tenants = [t for _s, t in members]
        columns.append(
            BulkLatency(
                np.array(submit), start, finish, exec_s, transfer_s,
                np.array(tenants) if any(tenants) else None,
            )
        )
        rows.extend(
            (s, start, finish, exec_s, transfer_s, t) for s, t in members
        )

    def components(summary):
        return {n: dataclasses.astuple(summary[n]) for n in COMPONENTS}

    overall = LatencySummary.of(columns)
    assert overall.count == len(rows)
    assert components(overall) == rows_summary(rows)
    split = tenant_summaries(columns)
    assert set(split) == {r[5] for r in rows if r[5]}
    for tenant, summary in split.items():
        mine = [r for r in rows if r[5] == tenant]
        assert summary.count == len(mine)
        assert components(summary) == rows_summary(mine)
