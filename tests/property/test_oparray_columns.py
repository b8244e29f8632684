"""The operation array's per-type resolution against a row-by-row one.

``OpArray.of_bulk`` groups a bulk by type and asks each type once: a
keyed declaration (``KeyedAccess`` / ``KeyedPartition``) answers a
whole column of parameter tuples, any other type its row form inside
the same per-type loop. The walls here:

* every keyed declaration's column answer equals its row answer, on
  the workloads' own parameters and on odd ones (floats, bools, digit
  strings), and the two fail alike;
* ``of_bulk`` over random bulks mixing all five workload families --
  TPC-C with keyed types, TM1's empty lookup access sets, SmallBank's
  ``None`` partitions, TM1's cross-partition sync pairs -- equals the
  reference built row by row through ``accesses()`` / ``partition_of()``
  and ``from_accesses`` on every column, and raises the same error,
  naming the same first transaction, when some parameters are bad or a
  type is unknown;
* ``signatures_bytes`` equals the per-row ``signature_bytes`` sum.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from repro.core.oparray import OpArray
from repro.core.procedure import KeyedAccess, KeyedPartition, ProcedureRegistry
from repro.core.txn import Transaction, signatures_bytes
from repro.errors import ProcedureError
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc


def _pool():
    """Every family's generator output, and a registry of all types."""
    tm1_db = tm1.build_database(1, subscribers_per_sf=200, seed=3)
    tpcc_db = tpcc.build_database(
        2, customers_per_district=10, n_items=100, seed=3
    )
    specs = (
        tm1.generate_transactions(tm1_db, 200, seed=7)
        + [
            ("tm1_sync_location", (a, b))
            for a, b in np.random.default_rng(1)
            .integers(0, 6, size=(40, 2)).tolist()
        ]
        + tpcb.generate_transactions(
            tpcb.build_database(4, accounts_per_branch=10), 100, seed=7
        )
        + smallbank.generate_transactions(
            smallbank.build_database(1, accounts_per_sf=50, seed=3), 200,
            seed=7,
        )
        + tpcc.generate_transactions(
            tpcc_db, 150, seed=7, remote_item_prob=0.1,
            remote_payment_prob=0.15, invalid_item_prob=0.05,
        )
        + micro.generate_transactions(100, n_tuples=40, seed=7)
    )
    registry = ProcedureRegistry()
    registry.register_many(
        tm1.CLUSTER_PROCEDURES + tpcb.PROCEDURES + smallbank.PROCEDURES
        + tpcc.PROCEDURES + micro.build_procedures()
    )
    return specs, registry


SPECS, REGISTRY = _pool()
KEYED = [
    REGISTRY.get(name) for name in REGISTRY.type_names
    if isinstance(REGISTRY.get(name).access_fn, KeyedAccess)
]
#: Parameters no declaration can read (a bulk may also name an unknown type).
BAD_PARAMS = [(), ("x", "y", "z", "w"), (None, None, None, None)]


def reference(registry, transactions):
    """The array built row by row, in bulk order: the first transaction
    whose type is unknown or whose declarations raise stops the build."""
    partitions, access_lists = [], []
    for t in transactions:
        txn_type = registry.get(t.type_name)
        try:
            partitions.append(txn_type.partition_of(t.params))
            access_lists.append((t.txn_id, txn_type.accesses(t.params)))
        except (IndexError, ValueError, TypeError, KeyError) as exc:
            raise ProcedureError(
                f"transaction {t.txn_id} ({t.type_name!r}): its declared "
                f"accesses cannot be resolved from {t.params!r}: {exc!r}"
            ) from exc
    return OpArray.from_accesses(access_lists, partitions)


def _outcome(build, *args):
    try:
        return build(*args), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


COLUMNS = ("txn_ids", "partition", "op_counts", "item", "txn", "write")


@st.composite
def bulks(draw):
    picks = draw(st.lists(st.integers(0, len(SPECS) - 1), max_size=60))
    specs = [SPECS[i] for i in picks]
    for _ in range(draw(st.integers(0, 2))):
        if specs:
            at = draw(st.integers(0, len(specs) - 1))
            name = specs[at][0]
            if draw(st.integers(0, 4)) == 0:
                name = "no_such_type"
            specs[at] = (name, draw(st.sampled_from(BAD_PARAMS)))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(specs), max_size=len(specs)))
    ids = np.cumsum(gaps).tolist()
    return [Transaction(i, name, params) for i, (name, params) in zip(ids, specs)]


@settings(max_examples=150, deadline=None)
@given(bulks())
def test_of_bulk_equals_the_row_by_row_reference(transactions):
    got, got_error = _outcome(OpArray.of_bulk, REGISTRY, transactions)
    want, want_error = _outcome(reference, REGISTRY, transactions)
    assert got_error == want_error
    if want is None:
        return
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


odd_keys = st.one_of(
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(0, 999).map(str),
    st.sampled_from(["x", None, float("inf"), float("nan")]),
)


@pytest.mark.parametrize("txn_type", KEYED, ids=lambda t: t.name)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(odd_keys, odd_keys, odd_keys, odd_keys), max_size=12))
def test_keyed_column_answers_equal_row_answers(txn_type, odd):
    own = [p for name, p in SPECS if name == txn_type.name]
    for column in (own, odd, own[:3] + odd):
        declarations = [txn_type.access_fn, txn_type.partition_fn]
        for declaration in declarations:
            assert isinstance(declaration, (KeyedAccess, KeyedPartition))
            rows, row_error = _outcome(
                lambda: [
                    a.item for p in column for a in declaration(p)
                ] if isinstance(declaration, KeyedAccess)
                else [declaration(p) for p in column]
            )
            keys, column_error = _outcome(declaration.keys, column)
            assert (row_error is None) == (column_error is None)
            if row_error is None:
                assert keys.dtype == np.int64
                assert keys.tolist() == rows
            else:
                assert row_error[0] == column_error[0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.integers(), st.text(max_size=6), st.binary(max_size=6),
                st.floats(allow_nan=False), st.booleans(),
                st.just(np.str_("abc")),
            ),
            max_size=5,
        ).map(tuple),
        max_size=20,
    )
)
def test_signatures_bytes_equals_the_row_sum(params):
    transactions = [Transaction(i, "t", p) for i, p in enumerate(params)]
    assert signatures_bytes(transactions) == sum(
        t.signature_bytes() for t in transactions
    )
