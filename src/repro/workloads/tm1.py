"""TM1 (Nokia Network Database Benchmark), Appendix E.

"A telecom workload benchmark originally developed by Nokia. It
consists of seven pre-defined transactions that insert, update, delete
and query tuples from four large tables." The subscriber id is the
partitioning key and -- the schema being a tree rooted at SUBSCRIBER --
also the conflict/lock item (Section 5.1).

Transaction splits (Appendix E): UPDATE_LOCATION,
INSERT_CALL_FORWARDING and DELETE_CALL_FORWARDING address the
subscriber by the *string* representation of the id; since "the mapping
from the string representation and the subscriber ID is static", the
paper splits each into a lookup transaction (string -> s_id via the
static map; conflict-free) and the remainder logic keyed by s_id. The
generator emits both halves back to back.

TM1's characteristically high abort ratio (Appendix E) emerges
naturally: GET_NEW_DESTINATION fails when no active special facility /
matching call-forwarding row exists, GET_ACCESS_DATA when the access
record is absent, INSERT_CALL_FORWARDING on duplicates, and
DELETE_CALL_FORWARDING on missing rows. All types are two-phase (abort
strictly before any write), so TM1 needs no undo logging.

Scaling: the paper's scale factor counts subscribers in the millions;
``subscribers_per_sf`` (default 2 000) scales that down for simulation
speed while keeping every ratio intact. The standard transaction mix is
GET_SUBSCRIBER_DATA 35 %, GET_NEW_DESTINATION 10 %, GET_ACCESS_DATA
35 %, UPDATE_SUBSCRIBER_DATA 2 %, UPDATE_LOCATION 14 %,
INSERT_CALL_FORWARDING 2 %, DELETE_CALL_FORWARDING 2 %.

Every type is a single-source kernel (:mod:`repro.core.backends.lane`),
registered with :meth:`TransactionType.from_kernel`: the kernel
``tm1.get_subscriber_data`` is the type's op stream and its vector
body alike. The equivalence walls' independent reference is micro's
hand-written pairs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.procedure import (
    Access, KeyedAccess, KeyedPartition, TransactionType,
)
from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.workloads.base import (
    TimedTxnSpec,
    TxnSpec,
    bursty_arrival_times,
    choose_mix,
    make_rng,
    padded_number_string,
    paired_items,
    poisson_arrival_times,
    timed_specs,
    uniform_arrival_times,
)

SUBSCRIBERS_PER_SF = 2_000
SUB_NBR_WIDTH = 15

SUBSCRIBER = "subscriber"
ACCESS_INFO = "access_info"
SPECIAL_FACILITY = "special_facility"
CALL_FORWARDING = "call_forwarding"

#: Standard TM1 transaction mix (weights in percent).
DEFAULT_MIX = [
    ("tm1_get_subscriber_data", 35.0),
    ("tm1_get_new_destination", 10.0),
    ("tm1_get_access_data", 35.0),
    ("tm1_update_subscriber_data", 2.0),
    ("tm1_update_location", 14.0),
    ("tm1_insert_call_forwarding", 2.0),
    ("tm1_delete_call_forwarding", 2.0),
]

_START_TIMES = (0, 8, 16)


def build_database(
    scale_factor: int,
    subscribers_per_sf: int = SUBSCRIBERS_PER_SF,
    layout: str = "column",
    seed: int = 42,
) -> Database:
    """Populate the four TM1 tables for ``scale_factor``."""
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    if subscribers_per_sf < 1:
        raise ValueError("subscribers_per_sf must be >= 1")
    rng = make_rng(seed)
    n_subs = scale_factor * subscribers_per_sf
    db = Database(layout)

    # -- SUBSCRIBER: full NDBB column set -------------------------------
    # Only the columns the registered transactions touch live on the
    # device; the rest stay host-side for result construction
    # (Appendix E: "read-only columns are stored in the main memory",
    # and only necessary columns are copied -- the source of the
    # column store's device-memory saving in Appendix F.2).
    device_cols = {"s_id", "bit_1", "hex_5", "byte2_9",
                   "msc_location", "vlr_location"}

    def sub_col(name: str, dtype: DataType) -> ColumnDef:
        return ColumnDef(name, dtype, device_resident=name in device_cols)

    sub_cols: List[ColumnDef] = [
        ColumnDef("s_id", DataType.INT64),
        ColumnDef("sub_nbr", DataType.CHAR, length=SUB_NBR_WIDTH,
                  device_resident=False),
    ]
    sub_cols += [sub_col(f"bit_{i}", DataType.BOOL) for i in range(1, 11)]
    sub_cols += [sub_col(f"hex_{i}", DataType.INT32) for i in range(1, 11)]
    sub_cols += [sub_col(f"byte2_{i}", DataType.INT32) for i in range(1, 11)]
    sub_cols += [
        ColumnDef("msc_location", DataType.INT64),
        ColumnDef("vlr_location", DataType.INT64),
    ]
    subscriber = db.create_table(
        TableSchema(
            SUBSCRIBER, sub_cols, primary_key=("s_id",), partition_key="s_id"
        ),
        capacity=n_subs,
    )
    s_ids = np.arange(n_subs, dtype=np.int64)
    columns = {
        "s_id": s_ids,
        "sub_nbr": np.array(
            [padded_number_string(int(s), SUB_NBR_WIDTH) for s in s_ids],
            dtype=object,
        ),
        "msc_location": rng.integers(1, 2**31, size=n_subs),
        "vlr_location": rng.integers(1, 2**31, size=n_subs),
    }
    for i in range(1, 11):
        columns[f"bit_{i}"] = rng.integers(0, 2, size=n_subs).astype(bool)
        columns[f"hex_{i}"] = rng.integers(0, 16, size=n_subs).astype(np.int32)
        columns[f"byte2_{i}"] = rng.integers(0, 256, size=n_subs).astype(np.int32)
    subscriber.append_columns(columns)

    # -- ACCESS_INFO: 1..4 types per subscriber, each present ~62.5 % ---
    ai_rows = {"s_id": [], "ai_type": [], "data1": [], "data2": [],
               "data3": [], "data4": []}
    present_ai = rng.random((n_subs, 4)) < 0.625
    for s in range(n_subs):
        for ai_type in range(1, 5):
            if present_ai[s, ai_type - 1]:
                ai_rows["s_id"].append(s)
                ai_rows["ai_type"].append(ai_type)
                ai_rows["data1"].append(int(rng.integers(0, 256)))
                ai_rows["data2"].append(int(rng.integers(0, 256)))
                ai_rows["data3"].append(int(rng.integers(0, 4096)))
                ai_rows["data4"].append(int(rng.integers(0, 2**20)))
    access_info = db.create_table(
        TableSchema(
            ACCESS_INFO,
            [
                ColumnDef("s_id", DataType.INT64),
                ColumnDef("ai_type", DataType.INT32),
                ColumnDef("data1", DataType.INT32),
                ColumnDef("data2", DataType.INT32),
                ColumnDef("data3", DataType.INT32),
                ColumnDef("data4", DataType.INT32),
            ],
            primary_key=("s_id", "ai_type"),
            partition_key="s_id",
        ),
        capacity=max(64, len(ai_rows["s_id"])),
    )
    access_info.append_columns({k: np.asarray(v) for k, v in ai_rows.items()})

    # -- SPECIAL_FACILITY + CALL_FORWARDING ------------------------------
    sf_rows = {"s_id": [], "sf_type": [], "is_active": [], "error_cntrl": [],
               "data_a": [], "data_b": []}
    cf_rows = {"s_id": [], "sf_type": [], "start_time": [], "end_time": [],
               "numberx": []}
    present_sf = rng.random((n_subs, 4)) < 0.625
    active_sf = rng.random((n_subs, 4)) < 0.85
    for s in range(n_subs):
        for sf_type in range(1, 5):
            if not present_sf[s, sf_type - 1]:
                continue
            sf_rows["s_id"].append(s)
            sf_rows["sf_type"].append(sf_type)
            sf_rows["is_active"].append(bool(active_sf[s, sf_type - 1]))
            sf_rows["error_cntrl"].append(int(rng.integers(0, 256)))
            sf_rows["data_a"].append(int(rng.integers(0, 256)))
            sf_rows["data_b"].append(int(rng.integers(0, 256)))
            for start in _START_TIMES:
                if rng.random() < 0.5:
                    cf_rows["s_id"].append(s)
                    cf_rows["sf_type"].append(sf_type)
                    cf_rows["start_time"].append(start)
                    cf_rows["end_time"].append(start + int(rng.integers(1, 9)))
                    cf_rows["numberx"].append(
                        padded_number_string(int(rng.integers(0, 10**9)),
                                             SUB_NBR_WIDTH)
                    )
    special_facility = db.create_table(
        TableSchema(
            SPECIAL_FACILITY,
            [
                ColumnDef("s_id", DataType.INT64),
                ColumnDef("sf_type", DataType.INT32),
                ColumnDef("is_active", DataType.BOOL),
                ColumnDef("error_cntrl", DataType.INT32),
                ColumnDef("data_a", DataType.INT32),
                ColumnDef("data_b", DataType.INT32),
            ],
            primary_key=("s_id", "sf_type"),
            partition_key="s_id",
        ),
        capacity=max(64, len(sf_rows["s_id"])),
    )
    special_facility.append_columns({k: np.asarray(v) for k, v in sf_rows.items()})

    call_forwarding = db.create_table(
        TableSchema(
            CALL_FORWARDING,
            [
                ColumnDef("s_id", DataType.INT64),
                ColumnDef("sf_type", DataType.INT32),
                ColumnDef("start_time", DataType.INT32),
                ColumnDef("end_time", DataType.INT32),
                ColumnDef("numberx", DataType.CHAR, length=SUB_NBR_WIDTH),
            ],
            primary_key=("s_id", "sf_type", "start_time"),
            partition_key="s_id",
        ),
        capacity=max(64, len(cf_rows["s_id"])),
    )
    call_forwarding.append_columns(
        {k: np.asarray(v, dtype=object if k == "numberx" else None)
         for k, v in cf_rows.items()}
    )

    # -- indexes + the static sub_nbr -> s_id map ------------------------
    db.create_index("subscriber_pk", SUBSCRIBER, ["s_id"])
    db.create_index("access_info_pk", ACCESS_INFO, ["s_id", "ai_type"])
    db.create_index("special_facility_pk", SPECIAL_FACILITY,
                    ["s_id", "sf_type"])
    db.create_index("call_forwarding_pk", CALL_FORWARDING,
                    ["s_id", "sf_type", "start_time"])
    db.create_index("call_forwarding_by_sf", CALL_FORWARDING,
                    ["s_id", "sf_type"], unique=False)
    db.create_static_map(
        "sub_nbr_map",
        {padded_number_string(int(s), SUB_NBR_WIDTH): int(s) for s in s_ids},
    )
    return db


# ---------------------------------------------------------------------------
# Stored procedures: single-source kernels (repro.core.backends.lane).
# ---------------------------------------------------------------------------
def get_subscriber_data(ctx):
    row = yield ctx.index_probe("subscriber_pk", ctx.param_i64(0))
    yield ctx.abort_where(row < 0, "subscriber not found")
    bit_1 = yield ctx.read(SUBSCRIBER, "bit_1", row)
    hex_5 = yield ctx.read(SUBSCRIBER, "hex_5", row)
    byte2_9 = yield ctx.read(SUBSCRIBER, "byte2_9", row)
    msc = yield ctx.read(SUBSCRIBER, "msc_location", row)
    vlr = yield ctx.read(SUBSCRIBER, "vlr_location", row)
    ctx.finish(bit_1, hex_5, byte2_9, msc, vlr)


def get_new_destination(ctx):
    s_id = ctx.param_i64(0)
    sf_type = ctx.param_i64(1)
    start_time = ctx.param_i64(2)
    end_time = ctx.param_i64(3)
    sf_row = yield ctx.index_probe("special_facility_pk", (s_id, sf_type))
    yield ctx.abort_where(sf_row < 0, "no special facility")
    is_active = yield ctx.read(SPECIAL_FACILITY, "is_active", sf_row)
    yield ctx.abort_where(is_active == 0, "special facility inactive")
    cand, n_cand = yield ctx.index_probe_multi(
        "call_forwarding_by_sf", (s_id, sf_type)
    )
    # The first candidate whose window covers the call wins.
    for slot in range(ctx.most(n_cand)):
        has = n_cand > slot
        rows = ctx.pick(cand, slot)
        cf_start = yield ctx.read(CALL_FORWARDING, "start_time", rows, mask=has)
        cf_end = yield ctx.read(CALL_FORWARDING, "end_time", rows, mask=has)
        match = has & (cf_start <= start_time) & (end_time < cf_end)
        numberx = yield ctx.read(CALL_FORWARDING, "numberx", rows, mask=match)
        ctx.finish_where(match, numberx)
    yield ctx.abort_where(ctx.active, "no matching call forwarding")


def get_access_data(ctx):
    row = yield ctx.index_probe(
        "access_info_pk", (ctx.param_i64(0), ctx.param_i64(1))
    )
    yield ctx.abort_where(row < 0, "no access info")
    data1 = yield ctx.read(ACCESS_INFO, "data1", row)
    data2 = yield ctx.read(ACCESS_INFO, "data2", row)
    data3 = yield ctx.read(ACCESS_INFO, "data3", row)
    data4 = yield ctx.read(ACCESS_INFO, "data4", row)
    ctx.finish(data1, data2, data3, data4)


def update_subscriber_data(ctx):
    # Phase 1 (probes + abort checks), then phase 2 (writes): two-phase.
    s_id = ctx.param_i64(0)
    sub_row = yield ctx.index_probe("subscriber_pk", s_id)
    yield ctx.abort_where(sub_row < 0, "subscriber not found")
    sf_row = yield ctx.index_probe(
        "special_facility_pk", (s_id, ctx.param_i64(2))
    )
    yield ctx.abort_where(sf_row < 0, "no special facility")
    yield ctx.write(SUBSCRIBER, "bit_1", sub_row, ctx.param_bool(1))
    yield ctx.write(SPECIAL_FACILITY, "data_a", sf_row, ctx.param_i64(3))
    ctx.finish()


def lookup_sub_nbr(ctx):
    s_id = yield ctx.index_probe("sub_nbr_map", ctx.param_obj(0))
    ctx.finish(s_id)


def update_location(ctx):
    row = yield ctx.index_probe("subscriber_pk", ctx.param_i64(0))
    yield ctx.abort_where(row < 0, "subscriber not found")
    yield ctx.write(SUBSCRIBER, "vlr_location", row, ctx.param_i64(1))
    ctx.finish()


def insert_call_forwarding(ctx):
    s_id = ctx.param_i64(0)
    sf_type = ctx.param_i64(1)
    start_time = ctx.param_i64(2)
    sf_row = yield ctx.index_probe("special_facility_pk", (s_id, sf_type))
    yield ctx.abort_where(sf_row < 0, "no special facility")
    existing = yield ctx.index_probe(
        "call_forwarding_pk", (s_id, sf_type, start_time)
    )
    yield ctx.abort_where(existing >= 0, "call forwarding exists")
    yield ctx.insert(
        CALL_FORWARDING,
        (s_id, sf_type, start_time, ctx.param_i64(3), ctx.param_obj(4)),
    )
    ctx.finish()


def delete_call_forwarding(ctx):
    row = yield ctx.index_probe(
        "call_forwarding_pk",
        (ctx.param_i64(0), ctx.param_i64(1), ctx.param_i64(2)),
    )
    yield ctx.abort_where(row < 0, "no call forwarding")
    yield ctx.delete(CALL_FORWARDING, row)
    ctx.finish()


def sync_location(ctx):
    """Cross-subscriber roaming sync (cluster workloads only).

    Copies the source subscriber's VLR location onto the destination
    subscriber -- the minimal TM1-style transaction whose access set
    spans two subscribers and therefore, under sharding, two shards.
    Two-phase: both existence checks precede the single write.
    """
    src_row = yield ctx.index_probe("subscriber_pk", ctx.param_i64(0))
    yield ctx.abort_where(src_row < 0, "source subscriber not found")
    dst_row = yield ctx.index_probe("subscriber_pk", ctx.param_i64(1))
    yield ctx.abort_where(dst_row < 0, "destination subscriber not found")
    vlr = yield ctx.read(SUBSCRIBER, "vlr_location", src_row)
    yield ctx.write(SUBSCRIBER, "vlr_location", dst_row, vlr)
    ctx.finish(vlr)


#: The subscriber id is every single-subscriber type's lock item and
#: partition; a lookup's ``sub_nbr`` is the zero-padded decimal s_id, so
#: its partition is statically derivable too (it locks nothing).
_READ_SUB = KeyedAccess(0, write=False)
_WRITE_SUB = KeyedAccess(0, write=True)
_SUB_PARTITION = KeyedPartition(0)


PROCEDURES = [
    TransactionType.from_kernel(
        get_subscriber_data,
        name="tm1_get_subscriber_data",
        access_fn=_READ_SUB,
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset({SUBSCRIBER}),
    ),
    TransactionType.from_kernel(
        get_new_destination,
        name="tm1_get_new_destination",
        access_fn=_READ_SUB,
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset({SPECIAL_FACILITY, CALL_FORWARDING}),
    ),
    TransactionType.from_kernel(
        get_access_data,
        name="tm1_get_access_data",
        access_fn=_READ_SUB,
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset({ACCESS_INFO}),
    ),
    TransactionType.from_kernel(
        update_subscriber_data,
        name="tm1_update_subscriber_data",
        access_fn=_WRITE_SUB,
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset({SUBSCRIBER, SPECIAL_FACILITY}),
    ),
    TransactionType.from_kernel(
        lookup_sub_nbr,
        name="tm1_lookup_sub_nbr",
        access_fn=KeyedAccess(None),
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset(),
    ),
    TransactionType.from_kernel(
        update_location,
        name="tm1_update_location",
        access_fn=_WRITE_SUB,
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset({SUBSCRIBER}),
    ),
    TransactionType.from_kernel(
        insert_call_forwarding,
        name="tm1_insert_call_forwarding",
        access_fn=_WRITE_SUB,
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset({SPECIAL_FACILITY, CALL_FORWARDING}),
        vector_inserts=frozenset({CALL_FORWARDING}),
    ),
    TransactionType.from_kernel(
        delete_call_forwarding,
        name="tm1_delete_call_forwarding",
        access_fn=_WRITE_SUB,
        partition_fn=_SUB_PARTITION,
        two_phase=True,
        conflict_classes=frozenset({CALL_FORWARDING}),
    ),
]


#: The cross-subscriber sync transaction (not part of the standard TM1
#: set; registered only by cluster workloads).
SYNC_LOCATION = TransactionType.from_kernel(
    sync_location,
    name="tm1_sync_location",
    access_fn=lambda p: [
        Access(item=int(p[0]), write=False),
        Access(item=int(p[1]), write=True),
    ],
    partition_fn=lambda p: int(p[0]) if int(p[0]) == int(p[1]) else None,
    two_phase=True,
    conflict_classes=frozenset({SUBSCRIBER}),
)

#: TM1 plus the cross-subscriber sync type, for ClusterTx workloads.
CLUSTER_PROCEDURES = PROCEDURES + [SYNC_LOCATION]


# ---------------------------------------------------------------------------
# Transaction generation.
# ---------------------------------------------------------------------------
def generate_transactions(
    db: Database,
    n: int,
    *,
    seed: int = 1,
    mix: List[Tuple[str, float]] | None = None,
) -> List[TxnSpec]:
    """Draw ``n`` logical TM1 transactions from the standard mix.

    The three string-addressed types are emitted as their two split
    halves (lookup + logic), matching Appendix E, so the returned list
    may be longer than ``n``.
    """
    rng = make_rng(seed)
    n_subs = db.table(SUBSCRIBER).n_rows
    picks = choose_mix(rng, DEFAULT_MIX if mix is None else mix, n)
    out: List[TxnSpec] = []
    for name in picks:
        s_id = int(rng.integers(0, n_subs))
        sf_type = int(rng.integers(1, 5))
        ai_type = int(rng.integers(1, 5))
        start = int(_START_TIMES[rng.integers(0, 3)])
        if name == "tm1_get_subscriber_data":
            out.append((name, (s_id,)))
        elif name == "tm1_get_new_destination":
            out.append((name, (s_id, sf_type, start, start + 1)))
        elif name == "tm1_get_access_data":
            out.append((name, (s_id, ai_type)))
        elif name == "tm1_update_subscriber_data":
            out.append(
                (name, (s_id, bool(rng.integers(0, 2)), sf_type,
                        int(rng.integers(0, 256))))
            )
        elif name == "tm1_update_location":
            sub_nbr = padded_number_string(s_id, SUB_NBR_WIDTH)
            out.append(("tm1_lookup_sub_nbr", (sub_nbr,)))
            out.append((name, (s_id, int(rng.integers(1, 2**31)))))
        elif name == "tm1_insert_call_forwarding":
            sub_nbr = padded_number_string(s_id, SUB_NBR_WIDTH)
            out.append(("tm1_lookup_sub_nbr", (sub_nbr,)))
            numberx = padded_number_string(
                int(rng.integers(0, 10**9)), SUB_NBR_WIDTH
            )
            out.append(
                (name, (s_id, sf_type, start, start + int(rng.integers(1, 9)),
                        numberx))
            )
        elif name == "tm1_delete_call_forwarding":
            sub_nbr = padded_number_string(s_id, SUB_NBR_WIDTH)
            out.append(("tm1_lookup_sub_nbr", (sub_nbr,)))
            out.append((name, (s_id, sf_type, start)))
        else:  # pragma: no cover - mix is validated by choose_mix
            raise ValueError(f"unknown TM1 type {name!r}")
    return out


def generate_timed_transactions(
    db: Database,
    n: int,
    *,
    rate_tps: float,
    pattern: str = "poisson",
    period_s: float = 0.05,
    duty: float = 0.25,
    seed: int = 1,
    mix: List[Tuple[str, float]] | None = None,
) -> List[TimedTxnSpec]:
    """A timed TM1 arrival stream for the online ingest runtime.

    Draws the standard mix via :func:`generate_transactions`, then
    stamps each transaction (including the split lookup halves) with
    an arrival time: ``pattern`` is ``"uniform"`` (the paper's
    response-time model), ``"poisson"`` (open-system arrivals), or
    ``"bursty"`` (on/off periods of ``period_s`` at ``duty`` duty
    cycle). Times are nondecreasing, as the serve runtime requires.
    """
    specs = generate_transactions(db, n, seed=seed, mix=mix)
    rng = make_rng(seed + 7)
    if pattern == "uniform":
        times = uniform_arrival_times(len(specs), rate_tps)
    elif pattern == "poisson":
        times = poisson_arrival_times(rng, len(specs), rate_tps)
    elif pattern == "bursty":
        times = bursty_arrival_times(
            rng, len(specs), rate_tps, period_s=period_s, duty=duty
        )
    else:
        raise ValueError(
            f"unknown arrival pattern {pattern!r}; "
            "use 'uniform', 'poisson', or 'bursty'"
        )
    return timed_specs(specs, times)


def generate_cluster_transactions(
    db: Database,
    n: int,
    *,
    shard_of,
    cross_shard_fraction: float = 0.0,
    seed: int = 1,
    mix: List[Tuple[str, float]] | None = None,
) -> List[TxnSpec]:
    """Shard-aware TM1 workload with a tunable cross-shard fraction.

    A ``cross_shard_fraction`` share of the ``n`` logical transactions
    are ``tm1_sync_location`` pairs spanning two shards (per
    ``shard_of``, typically the cluster router's ``shard_of_key``);
    the rest follow the standard TM1 mix -- every standard type is
    keyed by one subscriber and thus single-shard. Requires the engine
    to register :data:`CLUSTER_PROCEDURES`. With fraction 0 the result
    is an ordinary TM1 stream. The split name-lookup halves make the
    returned list slightly longer than ``n``, as with
    :func:`generate_transactions`, so the realised fraction is
    approximate.
    """
    if not 0.0 <= cross_shard_fraction <= 1.0:
        raise ValueError("cross_shard_fraction must be within [0, 1]")
    n_sync = round(n * cross_shard_fraction)
    base = generate_transactions(db, n - n_sync, seed=seed, mix=mix)
    if n_sync == 0:
        return base
    rng = make_rng(seed + 1)
    n_subs = db.table(SUBSCRIBER).n_rows
    pairs = paired_items(rng, n_subs, shard_of, 1.0, n_sync)
    syncs: List[TxnSpec] = [
        ("tm1_sync_location", (int(pairs[i, 0]), int(pairs[i, 1])))
        for i in range(n_sync)
    ]
    # Interleave the sync transactions uniformly into the stream.
    out = list(base)
    positions = sorted(
        (int(rng.integers(0, len(out) + 1)) for _ in syncs), reverse=True
    )
    for pos, spec in zip(positions, syncs):
        out.insert(pos, spec)
    return out
