"""Using the SIMT substrate directly (no OLTP layer).

The simulated GPU is a reusable component: write your own "kernel" as a
generator of micro-ops and launch thousands of threads. This example

1. runs a custom counter kernel and inspects divergence/coalescing
   statistics;
2. orders conflicting threads with the deterministic counter lock of
   Figure 11;
3. reproduces the classic deadlock of the basic 0/1 spin lock
   (Figure 10) and shows the engine detecting it.

The kernels run on the same store the engine uses: a ``Database``
behind a ``StoreAdapter``.

Run:  python examples/gpu_playground.py
"""

from repro import DeadlockError
from repro.gpu import ops
from repro.gpu.atomics import LockTable
from repro.gpu.simt import SIMTEngine, ThreadTask
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.schema import ColumnDef, DataType, TableSchema


def one_table_store(table: str, columns: list, n_rows: int) -> StoreAdapter:
    """A column-store table of ``n_rows`` zero INT64 rows."""
    db = Database()
    schema = TableSchema(table, [ColumnDef(c, DataType.INT64) for c in columns])
    db.create_table(schema, capacity=n_rows).append_rows(
        [(0,) * len(columns)] * n_rows
    )
    return StoreAdapter(db)


def main() -> None:
    engine = SIMTEngine()  # a simulated Tesla C1060

    # --- 1. a custom kernel ----------------------------------------------
    store = one_table_store("grid", ["cell"], 1024)

    def life_step(row: int, tag: int):
        def body():
            yield ops.SetBranch(tag)          # pretend switch-case
            value = yield ops.Read("grid", "cell", row)
            yield ops.Compute(8)
            yield ops.Write("grid", "cell", row, value + row % 3)
            return value

        return body()

    tasks = [ThreadTask(i, i % 4, life_step(i, i % 4)) for i in range(1024)]
    report = engine.launch(tasks, store)
    stats = report.stats
    print("custom kernel over 1024 threads:")
    print(f"  simulated time : {report.seconds * 1e6:.1f} us")
    print(f"  ops executed   : {stats.ops_executed}")
    print(f"  divergence     : {stats.divergent_serializations} "
          "(4 interleaved switch cases per warp)")
    print(f"  memory         : {sum(stats.mem_transactions)} transactions, "
          f"{sum(stats.mem_bytes) // 1024} KiB")

    # --- 2. deterministic counter locks ------------------------------------
    store = one_table_store("t", ["v"], 1)
    locks = LockTable(1)

    def appender(key: int):
        def body():
            yield ops.LockAcquire(0, key=key)
            value = yield ops.Read("t", "v", 0)
            yield ops.Write("t", "v", 0, value * 10 + key)
            yield ops.LockRelease(0)

        return body()

    # Submit in scrambled order; keys enforce 0,1,2,3.
    order = [2, 0, 3, 1]
    engine.launch(
        [ThreadTask(i, 0, appender(k)) for i, k in enumerate(order)],
        store,
        locks=locks,
    )
    print(f"\ncounter-lock execution order encoded in digits: "
          f"{store.read('t', 'v', 0)} (expected 123)")

    # --- 3. the Figure 10 deadlock -----------------------------------------
    locks = LockTable(2)

    def embrace(first: int, second: int):
        def body():
            yield ops.LockAcquire(first)     # basic 0/1 lock
            yield ops.Compute(1)
            yield ops.LockAcquire(second)
            yield ops.LockRelease(second)
            yield ops.LockRelease(first)

        return body()

    try:
        engine.launch(
            [ThreadTask(0, 0, embrace(0, 1)), ThreadTask(1, 0, embrace(1, 0))],
            one_table_store("x", ["y"], 1),
            locks=locks,
        )
    except DeadlockError as exc:
        print(f"\nbasic 0/1 locks, opposite acquisition order:\n  {exc}")
        print("the counter lock keyed by T-dependency ranks cannot "
              "deadlock -- ranks order all waits by timestamp.")


if __name__ == "__main__":
    main()
