"""The one command surface: ``python -m repro <subcommand>``.

Subcommands:

* ``bench`` -- run the benchmark suite and emit the perf-trajectory
  headline JSON (delegates to :func:`repro.bench.harness.main`);
* ``telemetry report|validate`` -- inspect or schema-check an exported
  Chrome trace (delegates to :func:`repro.telemetry.report.main`);
* ``migrate-demo`` -- build a small range-sharded SmallBank cluster,
  execute a bulk, and perform one live range migration, printing the
  router table before/after and the cost breakdown;
* ``scenarios list|run|verify`` -- the declarative multi-tenant
  scenario harness (:mod:`repro.scenarios`): enumerate the registered
  scenarios, execute one, or run the built-in verifiers (Definition-1
  equivalence, tenant isolation, byte-identical recovery).
"""

from __future__ import annotations

import sys
from typing import List, Optional

_USAGE = """\
usage: python -m repro <command> [args...]

commands:
  bench           run the benchmark suite (see: python -m repro bench --help)
  telemetry       inspect/validate exported traces (report | validate)
  migrate-demo    live shard-migration walkthrough on a SmallBank cluster
  scenarios       multi-tenant scenario harness (list | run | verify)
"""


def _migrate_demo(argv: List[str]) -> int:
    """A self-contained elastic-shards walkthrough."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro migrate-demo",
        description=(
            "Build a range-sharded SmallBank cluster, run one bulk, "
            "then split the busiest shard's range live."
        ),
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--txns", type=int, default=400)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--theta", type=float, default=0.9,
        help="zipfian skew of the demo workload (0 = uniform)",
    )
    args = parser.parse_args(argv)

    import repro.telemetry as telemetry
    from repro.cluster.durability.failover import DurabilityConfig
    from repro.cluster.elastic import MigrationPlan
    from repro.cluster.runtime import ClusterTx
    from repro.config import ClusterOptions
    from repro.workloads import smallbank

    db = smallbank.build_database(scale_factor=1)
    cluster = ClusterTx(
        db,
        procedures=smallbank.PROCEDURES,
        n_shards=args.shards,
        router="range",
        options=ClusterOptions(durability=DurabilityConfig()),
    )

    def show_table(title: str) -> None:
        print(title)
        for lo, hi, owner in cluster.router.range_table:
            print(f"  [{lo:>5}, {hi:>5}) -> shard {owner}")

    show_table("range table (before):")
    cluster.submit_many(
        smallbank.generate_transactions(
            db, args.txns, seed=args.seed, theta=args.theta
        )
    )
    with telemetry.session():
        out = cluster.execute_bulk(cluster.pool.take())
        print(
            f"bulk: {len(out.results)} txns, {out.committed} committed, "
            f"{len(out.waves)} waves, {out.seconds * 1e3:.3f} ms simulated"
        )
        busiest = max(
            range(cluster.n_shards), key=lambda k: out.shard_busy_s[k]
        )
        coolest = min(
            (k for k in range(cluster.n_shards) if k != busiest),
            key=lambda k: out.shard_busy_s[k],
        )
        lo, hi = max(
            cluster.router.ranges_of(busiest), key=lambda r: r[1] - r[0]
        )
        mid = (lo + hi) // 2
        report = cluster.migrate(
            MigrationPlan(src=busiest, dst=coolest, key_lo=mid, key_hi=hi)
        )
    print(
        f"migrated [{report.key_lo}, {report.key_hi}) from shard "
        f"{report.src} to shard {report.dst}: {report.moved_rows} rows "
        f"({report.moved_bytes} B), {report.tail_records} WAL tail "
        "records replayed"
    )
    print(
        "cost (simulated ms): "
        f"fork {report.fork_seconds * 1e3:.4f}, "
        f"wal_replay {report.replay_seconds * 1e3:.4f}, "
        f"copy {report.transfer_seconds * 1e3:.4f}, "
        f"wal_sync {report.wal_sync_seconds * 1e3:.4f}, "
        f"swap {report.swap_seconds * 1e3:.4f}, "
        f"total {report.seconds * 1e3:.4f}"
    )
    show_table("range table (after):")
    return 0


def _scenarios(argv: List[str]) -> int:
    """``python -m repro scenarios list|run|verify``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro scenarios",
        description=(
            "Declarative multi-tenant scenarios with built-in "
            "verifiers (see docs/SCENARIOS.md)."
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list", help="show every registered scenario")

    def add_common(p: "argparse.ArgumentParser") -> None:
        p.add_argument(
            "--scale", type=float, default=None,
            help="workload scale factor (default: 1.0, or the smoke "
            "scale when REPRO_SCENARIO_SMOKE is set)",
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="override the scenario's declared seed",
        )

    run_p = sub.add_parser("run", help="execute one scenario")
    run_p.add_argument("name")
    add_common(run_p)
    verify_p = sub.add_parser(
        "verify", help="run the built-in verifiers against scenarios"
    )
    verify_p.add_argument("names", nargs="*", metavar="name")
    verify_p.add_argument(
        "--all", action="store_true", dest="all_scenarios",
        help="verify every registered scenario",
    )
    add_common(verify_p)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)

    from repro.errors import ConfigError
    from repro.scenarios import names, get, run_scenario, verify_scenario

    if args.action == "list":
        for name in names():
            scenario = get(name)
            tenants = ",".join(t.name for t in scenario.tenants) or "-"
            faults = len(scenario.faults)
            print(
                f"{name:<18} {scenario.workload:<10} "
                f"mode={scenario.mode:<6} n={scenario.n_txns:<6} "
                f"shards={scenario.n_shards} tenants={tenants} "
                f"faults={faults}"
            )
            print(f"  {scenario.description}")
        return 0

    if args.action == "run":
        try:
            run = run_scenario(
                args.name, scale=args.scale, seed=args.seed
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"scenario {run.scenario} ({run.mode}): n={run.n} "
            f"seed={run.seed} executed={run.executed} "
            f"committed={run.committed} aborted={run.aborted} "
            f"kills={run.kills_injected} "
            f"migrations={len(run.migrations)} "
            f"busy={run.busy_s * 1e3:.2f}ms"
        )
        for tenant, summary in sorted(run.tenants.items()):
            p50 = (
                summary.components["total"].p50 if summary.components else 0.0
            )
            print(
                f"  tenant {tenant}: n={summary.count} "
                f"shed={summary.shed} "
                f"p50={p50 * 1e3:.2f}ms "
                f"p95={summary.p95_total_s * 1e3:.2f}ms"
            )
        return 0

    # verify
    if args.all_scenarios:
        targets = names()
    elif args.names:
        targets = args.names
    else:
        print(
            "error: give scenario names or --all\n", file=sys.stderr
        )
        return 2
    ok = True
    for name in targets:
        try:
            report = verify_scenario(
                name, scale=args.scale, seed=args.seed
            )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.format())
        ok = ok and report.ok
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    command, rest = argv[0], argv[1:]
    if command == "bench":
        from repro.bench.harness import main as bench_main

        return bench_main(rest)
    if command == "telemetry":
        from repro.telemetry.report import main as telemetry_main

        return telemetry_main(rest)
    if command == "migrate-demo":
        return _migrate_demo(rest)
    if command == "scenarios":
        return _scenarios(rest)
    print(f"unknown command {command!r}\n{_USAGE}", end="", file=sys.stderr)
    return 2
