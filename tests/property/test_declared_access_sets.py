"""The declared access sets over-approximate what execution touches.

K-SET ranks, PART, TPL lock plans, shard routing and the coordinator's
conflict groups all read one ``OpArray``, i.e. all of them trust the
hand-written ``access_fn`` of every transaction type -- the one copy of
a stored procedure a kernel cannot derive (it is at root-relation
granularity: TPC-B locks the branch, not the rows it touches). Static
parallelisation is sound only if those declared sets are safe
over-approximations of what execution really touches ("A theory of
transaction parallelism in blockchains", PAPERS.md). With one lane
stream per type that is a short machine check: peel the 0-sets of a
bulk from each workload's own generator, run every member's op stream
against a recording store, and require that

(i)  no cell ``(table, column, row)`` written by one member (an insert
     or delete writes every cell of its row) is read or written by
     another member of the same 0-set -- declared conflict-free implies
     cell-disjoint; and
(ii) no transaction of a ``two_phase=True`` type aborts after a write,
     insert or delete (such types run without an undo log).

PR 5 found TPC-C ``stock_level`` under-declaring its reads by luck;
this would have found it on the generator's own traffic.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import pytest

from repro.core.kset import IncrementalKSetExtractor
from repro.core.oparray import OpArray
from repro.core.procedure import Access, ProcedureRegistry, TransactionType
from repro.core.txn import TransactionPool
from repro.cpu.costmodel import CpuCostModel
from repro.cpu.engine import run_stream
from repro.gpu.spec import XEON_E5520
from repro.storage.catalog import StoreAdapter
from repro.workloads import micro, smallbank, tm1, tpcb, tpcc

from tests.conftest import BANK_PROCEDURES, build_bank_db

Cell = Tuple[str, str, int]


class RecordingAdapter:
    """A ``StoreAdapter`` proxy noting every cell one stream reads and
    writes; anything it does not record passes straight through."""

    def __init__(self, adapter: StoreAdapter) -> None:
        self._adapter = adapter
        self.reads: Set[Cell] = set()
        self.writes: Set[Cell] = set()

    def __getattr__(self, name):
        return getattr(self._adapter, name)

    def _row_cells(self, table: str, row: int) -> List[Cell]:
        schema = self._adapter.db.table(table).schema
        return [(table, col.name, row) for col in schema.columns]

    def read(self, table, column, row):
        self.reads.add((table, column, row))
        return self._adapter.read(table, column, row)

    def write(self, table, column, row, value):
        self.writes.add((table, column, row))
        return self._adapter.write(table, column, row, value)

    def insert(self, table, values):
        row = self._adapter.insert(table, values)
        self.writes.update(self._row_cells(table, row))
        return row

    def delete(self, table, row):
        self.writes.update(self._row_cells(table, row))
        return self._adapter.delete(table, row)


@dataclass
class VerificationResult:
    """Outcome of checking one bulk's declarations against execution."""

    workload: str
    transactions: int = 0
    waves: int = 0
    aborts: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = (
            f"[{status}] {self.workload}: {self.transactions} txns, "
            f"{self.waves} 0-sets, {self.aborts} aborts, "
            f"{len(self.violations)} violations"
        )
        return "\n".join([head] + [f"  {v}" for v in self.violations[:20]])


def verify_declarations(workload, db, procedures, specs) -> VerificationResult:
    registry = ProcedureRegistry()
    registry.register_many(procedures)
    pool = TransactionPool()
    pool.submit_specs(specs)
    txns = pool.take()
    by_id = {t.txn_id: t for t in txns}
    adapter = StoreAdapter(db)
    cost = CpuCostModel(XEON_E5520)
    out = VerificationResult(workload, transactions=len(txns))

    def describe(txn) -> str:
        declared = [
            (a.item, "w" if a.write else "r")
            for a in registry.get(txn.type_name).accesses(txn.params)
        ]
        return f"txn {txn.txn_id} {txn.type_name}{txn.params} declared {declared}"

    extractor = IncrementalKSetExtractor(OpArray.of_bulk(registry, txns))
    while len(extractor):
        out.waves += 1
        #: cell -> an earlier member of this 0-set that wrote / read it.
        wrote: Dict[Cell, int] = {}
        read: Dict[Cell, int] = {}
        for txn_id in extractor.pop_zero_set():
            txn = by_id[txn_id]
            recording = RecordingAdapter(adapter)
            _cycles, committed, reason, _value = run_stream(
                registry.build_stream(txn.type_name, txn.params),
                recording, cost, who=f"txn {txn_id}",
            )
            if not committed:
                out.aborts += 1
                if recording.writes and registry.get(txn.type_name).two_phase:
                    out.violations.append(
                        f"two-phase: {describe(txn)} aborted ({reason!r}) "
                        f"after writing {sorted(recording.writes)[:3]}"
                    )
            clashes = [
                (cell, wrote.get(cell, read.get(cell)), "writes")
                for cell in recording.writes
                if cell in wrote or cell in read
            ] + [
                (cell, wrote[cell], "reads")
                for cell in recording.reads - recording.writes
                if cell in wrote
            ]
            for cell, other, how in sorted(clashes)[:3]:
                out.violations.append(
                    f"cell {cell}: {describe(txn)} {how} what "
                    f"{describe(by_id[other])} touched in the same 0-set"
                )
            for cell in recording.writes:
                wrote.setdefault(cell, txn_id)
            for cell in recording.reads:
                read.setdefault(cell, txn_id)
        adapter.apply_batch()
    return out


def _tm1():
    db = tm1.build_database(1, subscribers_per_sf=400, seed=3)
    return db, tm1.PROCEDURES, tm1.generate_transactions(db, 3000, seed=7)


def _tpcb():
    db = tpcb.build_database(16, accounts_per_branch=50)
    return db, tpcb.PROCEDURES, tpcb.generate_transactions(db, 2000, seed=7)


def _smallbank():
    db = smallbank.build_database(1, accounts_per_sf=500, seed=3)
    specs = smallbank.generate_transactions(db, 3000, seed=7, theta=0.9)
    return db, smallbank.PROCEDURES, specs


def _tpcc():
    db = tpcc.build_database(
        2, customers_per_district=30, n_items=200, seed=3
    )
    specs = tpcc.generate_transactions(
        db, 1500, seed=7, remote_item_prob=0.1, remote_payment_prob=0.15,
        invalid_item_prob=0.05,
    )
    return db, tpcc.PROCEDURES, specs


def _micro():
    db = micro.build_database(400)
    specs = micro.generate_transactions(2000, n_tuples=400, alpha=0.002, seed=7)
    return db, micro.build_procedures(), specs


@pytest.mark.parametrize(
    "case", [_tm1, _tpcb, _smallbank, _tpcc, _micro],
    ids=["tm1", "tpcb", "smallbank", "tpcc", "micro"],
)
def test_declared_conflict_free_implies_cell_disjoint(case):
    db, procedures, specs = case()
    result = verify_declarations(case.__name__[1:], db, procedures, specs)
    assert result.passed, result.format()
    # The bulk must exercise what it claims to check: real contention
    # (several 0-sets) and, where the workload aborts at all, aborts.
    assert result.transactions == len(specs) and result.waves > 1
    if case in (_tm1, _smallbank, _tpcc):
        assert result.aborts > 0, result.format()


class TestTheCheckCanFail:
    """The verifier reports the pair, the cell and the declared items."""

    def test_an_under_declared_read_is_named(self):
        # PR 5's stock_level hole in miniature: ``peek`` reads account
        # p[1] but declares only p[0].
        audit = next(t for t in BANK_PROCEDURES if t.name == "audit")
        peek = dataclasses.replace(
            audit,
            name="peek",
            body=lambda a, b: audit.body(b),
            access_fn=lambda p: [Access(int(p[0]), write=False)],
            vector_body=None,
        )
        result = verify_declarations(
            "bank", build_bank_db(8), list(BANK_PROCEDURES) + [peek],
            [("deposit", (3, 5)), ("peek", (1, 3))],
        )
        assert not result.passed and result.waves == 1
        (violation,) = result.violations
        assert "cell ('accounts', 'balance', 3)" in violation
        assert "txn 1 peek(1, 3) declared [(1, 'r')] reads" in violation
        assert "txn 0 deposit(3, 5) declared [(3, 'w')]" in violation

    def test_an_abort_after_a_write_is_named(self):
        risky = next(t for t in BANK_PROCEDURES if t.name == "risky")
        assert not risky.two_phase
        claimed = dataclasses.replace(risky, name="claimed", two_phase=True)
        result = verify_declarations(
            "bank", build_bank_db(8), [claimed], [("claimed", (0, 5, 1))]
        )
        assert result.aborts == 1
        (violation,) = result.violations
        assert violation.startswith("two-phase: txn 0 claimed(0, 5, 1)")
