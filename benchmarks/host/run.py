"""Host-clock benchmark: what the Python process costs per transaction.

Two ways in, one measurement underneath:

* the contract form the benchmark driver uses --
  ``python3 benchmarks/host/run.py --workload W --seed N --seconds S
  --trace 0|1`` -- measures one workload and prints one JSON object as
  the last line of stdout (end-to-end metrics with ``--trace 0``,
  per-layer metrics with ``--trace 1``);
* the suite form -- ``python3 benchmarks/host/run.py --seed N --out
  results.json`` -- runs every workload ``--repeats`` times untraced
  (interleaved across workloads, so machine drift hits all alike) plus
  one traced pass each, prints every metric by name with its unit, and
  exits non-zero if any output check fails. ``compare.py`` gates two
  such files against each other.

Each measurement runs in a fresh child process, one at a time, pinned
to one core, with ``PYTHONHASHSEED``/BLAS thread counts pinned and
every ``REPRO_*`` switch cleared. GC stays enabled: gen-2 pauses over
the per-transaction object heap are part of what a user pays.

Inside a child, one *pass* is a full set-up (build the database,
generate inputs from the seed, construct engine/cluster/runtime)
followed by the timed region. A run is ``max(3, seconds / 2.5)``
passes, each on its own inputs (seed ``100 * seed + pass``), and a
host-clock metric is the median over the passes. Every timed region is
bracketed by slices of a fixed piece of benchmark-owned work
(``yardstick.py``) and its host seconds are scaled by the speed the
slices ran at: this sandbox's core steps by 20-40 % for seconds at a
time, and without that scaling two runs of the same code do not agree
within any bound worth gating on.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def bootstrap_path() -> None:
    """Make ``repro`` (``src/``) and ``benchmarks.host`` importable from
    this checkout only; the script directory must not shadow stdlib
    modules (``trace``)."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"host benchmark: no program to measure at {ROOT / 'src'}")
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


bootstrap_path()

from benchmarks.host import metrics as M  # noqa: E402

DEFAULT_SEED = 29
DEFAULT_SECONDS = 10
DEFAULT_REPEATS = 5
CHILD_TIMEOUT_S = 170

ENV_PINS = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


# ----------------------------------------------------------------------
# Child side: one workload, measured in this process (see child.py).
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    # One core for load and program; the other is left to the OS.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from benchmarks.host import child
    from benchmarks.host.workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    cls = WORKLOADS[args.workload]
    scale = M.SCALES[args.workload]
    passes = child.pass_count(args.seconds)
    if args.quick:
        scale, passes = scale / child.QUICK_DIVISOR, 1
    if args.trace:
        report = child.traced_child(
            cls, args.seed, scale, passes, args.trace_out
        )
    else:
        report = child.timed_child(
            cls, args.seed, scale, passes, import_s, args.digest
        )
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
# Parent side: spawn children, aggregate, report.
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(ENV_PINS)
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, quick: bool,
          trace_out: Optional[str] = None, digest: bool = False) -> dict:
    """Run one measurement in a fresh child and parse its report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    if digest:
        command.append("--digest")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(
            f"{workload}: measurement child exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def contract_main(args: argparse.Namespace) -> int:
    report = spawn(args.workload[0], args.seed, args.seconds, args.trace,
                   args.quick, args.trace_out)
    wanted = (
        [m.name for m in M.PER_LAYER] if args.trace
        else [m.name for m in M.END_TO_END if m.contract]
    )
    for note in report["notes"]:
        print(f"# {note}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: report["metrics"][name] for name in wanted},
    }))
    return 0 if report["correct"] else 1


def summarise(values: Sequence[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "values": list(values),
    }


def provenance(args: argparse.Namespace) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "env": ENV_PINS,
    }


def suite_main(args: argparse.Namespace) -> int:
    names = args.workload or list(M.SCALES)
    repeats = 1 if args.quick else args.repeats
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:  # interleaved: drift hits every workload alike
            report = spawn(name, args.seed, args.seconds, 0, args.quick,
                           digest=True)
            runs[name].append(report)
            print(f"[{repeat + 1}/{repeats}] {name}: "
                  f"{report['metrics']['host_tps']['value']:.0f} txn/s "
                  f"({report['passes']} passes)", flush=True)
    document: Dict[str, Any] = {
        "schema": 1,
        "comparable": not args.quick,
        "provenance": provenance(args),
        "workloads": {},
    }
    ok = True
    for name in names:
        trace_out = None
        if args.trace_out:
            stem = Path(args.trace_out)
            trace_out = str(stem.with_name(f"{stem.stem}.{name}{stem.suffix}"))
        traced = spawn(name, args.seed, args.seconds, 1, args.quick, trace_out)
        reports = runs[name]
        digests = {r["digest"] for r in reports} | {traced["digest"]}
        disagree = []
        if len(digests) > 1:
            disagree.append("state digests: " + ", ".join(sorted(digests)))
        end_to_end = {}
        for metric in M.END_TO_END:
            entry = summarise(
                [r["metrics"][metric.name]["value"] for r in reports]
            )
            entry.update(unit=metric.unit, better=metric.better,
                         bound=metric.bound, exact=metric.exact)
            if metric.exact and entry["min"] != max(entry["values"]):
                disagree.append(metric.name)
            end_to_end[metric.name] = entry
        attempted = sum(r["attempted"] for r in reports) + traced["attempted"]
        failed = sum(r["failed"] for r in reports) + traced["failed"]
        correct = failed == 0 and not disagree
        ok = ok and correct
        document["workloads"][name] = {
            "correct": correct,
            "ops_attempted": attempted,
            "ops_failed": failed,
            "n_latency": reports[0]["n_latency"],
            "notes": sorted({n for r in reports + [traced] for n in r["notes"]})
            + [f"repeats disagree on {what}" for what in disagree],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    print_report(document)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
        print(f"[saved to {args.out}]")
    return 0 if ok else 1


def print_report(document: dict) -> None:
    for name, entry in document["workloads"].items():
        print(f"\n== {name}: {'ok' if entry['correct'] else 'FAILED'} "
              f"(ops {entry['ops_failed']}/{entry['ops_attempted']} failed, "
              f"latency n={entry['n_latency']})")
        for note in entry["notes"]:
            print(f"   ! {note}")
        for metric, e in entry["end_to_end"].items():
            print(f"   {metric:<16} {e['median']:>14.6g} {e['unit']:<11}"
                  f" min {e['min']:.6g}  IQR [{e['q1']:.6g}, {e['q3']:.6g}]"
                  f"  n={e['n']}")
        traced_s = entry["per_layer"]["bench.traced_s"]["value"]
        for metric, e in entry["per_layer"].items():
            if not e["value"]:
                continue
            share = ""
            if metric.endswith(".self_s") and traced_s and (
                M.LAYERS.get(metric[: -len(".self_s")]) == "timed"
            ):
                share = f"  ({e['value'] / traced_s:6.1%} of traced)"
            print(f"     {metric:<44} {e['value']:>14.6g} {e['unit']}{share}")


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(M.SCALES),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed-region seconds measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract form: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="suite form: untraced repeats per workload")
    parser.add_argument("--out", help="suite form: write results JSON here")
    parser.add_argument("--trace-out",
                        help="write the traced pass as a Chrome trace "
                        "(suite form: one file per workload)")
    parser.add_argument("--quick", action="store_true",
                        help="inputs / 20, one pass; not comparable")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace is not None and not args.child and (
        not args.workload or len(args.workload) != 1
    ):
        parser.error("--trace measures exactly one --workload")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        args.workload = args.workload[0]
        return child_main(args)
    if args.trace is not None:
        return contract_main(args)
    return suite_main(args)


if __name__ == "__main__":
    sys.exit(main())
