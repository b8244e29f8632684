#!/usr/bin/env python
"""Gate the CI perf trajectory: compare a BENCH_PR<k>.json against the
committed baseline and fail on regressions.

Usage::

    python scripts/bench_compare.py BENCH_PR3.json \
        [--baseline benchmarks/baselines/BENCH_baseline.json] \
        [--threshold 0.25]

Both files are produced by ``python -m repro bench --out ...``
(figure id -> headline metric). Every headline metric is
higher-is-better (throughputs, speedups), and the simulated clock
makes them deterministic for a given code state, so any drop is a real
change to the modelled hot path -- the threshold only absorbs
intentional small remodelling, not machine noise.

Exit status: 0 when every shared figure is within threshold, 1 on any
regression or on a figure the baseline has but the current run lost
(a lane that silently drops a figure must go red too). Figures new in
the current run pass with a note; refresh the baseline to start
tracking them.

``--self-test`` is the gate's canary: it halves every headline of the
current run in memory (a 2x slowdown of everything) and exits 0 only
if the comparison then goes red -- proof that the gate can fire, with
no second bench run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict

DEFAULT_BASELINE = "benchmarks/baselines/BENCH_baseline.json"
DEFAULT_THRESHOLD = 0.25
#: Baselines at or below this magnitude are treated as zero: a metric
#: legitimately at (or within float noise of) 0 -- a shed rate, an
#: overhead share -- has no meaningful *relative* delta, and dividing
#: by it would either crash (exactly 0) or turn a negligible absolute
#: change into a million-percent swing (denormal baselines).
ZERO_BASELINE_EPS = 1e-12


def relative_delta(base_value: float, cur_value: float) -> float:
    """Higher-is-better relative change, defined for zero baselines.

    For a zero/near-zero baseline the row cannot regress relative to
    nothing: any current value at or above the baseline reports 0.0,
    and a drop below it reports -1.0 (a full regression, so the gate
    still fires if a figure somehow falls below an already-zero
    baseline).
    """
    if abs(base_value) <= ZERO_BASELINE_EPS:
        return 0.0 if cur_value >= base_value else -1.0
    return (cur_value - base_value) / base_value


def load_payload(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload.get("figures"), dict):
        raise SystemExit(f"{path}: not a bench JSON (no 'figures' map)")
    return payload


def check_same_context(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> None:
    """Refuse to compare runs from different workload regimes.

    A baseline refreshed under ``--full`` or ``REPRO_SCALE=paper``
    must not silently gate smoke-mode CI runs (or vice versa): every
    figure would differ for reasons unrelated to any code change.
    """
    for key in ("smoke", "scale"):
        if baseline.get(key) != current.get(key):
            raise SystemExit(
                f"refusing to compare: baseline has {key}="
                f"{baseline.get(key)!r} but current run has "
                f"{key}={current.get(key)!r}; regenerate the baseline "
                "in the same mode (python -m repro bench --out ...)"
            )


def compare(
    baseline: Dict[str, Dict[str, Any]],
    current: Dict[str, Dict[str, Any]],
    threshold: float,
) -> int:
    """Print the comparison table; return the number of failures."""
    failures = 0
    width = max((len(f) for f in baseline | current), default=10)
    header = (
        f"{'figure'.ljust(width)}  {'metric':22s}  {'baseline':>12s}  "
        f"{'current':>12s}  {'delta':>8s}"
    )
    print(header)
    print("-" * len(header))
    for figure in sorted(baseline):
        base = baseline[figure]
        label = str(base.get("metric", "?"))
        base_value = float(base["value"])
        if figure not in current:
            failures += 1
            print(
                f"{figure.ljust(width)}  {label:22s}  {base_value:12.4g}  "
                f"{'MISSING':>12s}  {'FAIL':>8s}"
            )
            continue
        cur_metric = str(current[figure].get("metric", "?"))
        if cur_metric != label:
            # The figure's headline changed identity (column renamed or
            # dropped): the numbers are not comparable.
            failures += 1
            print(
                f"{figure.ljust(width)}  {label:22s}  {base_value:12.4g}  "
                f"{'now ' + cur_metric:>12s}  {'FAIL':>8s}"
            )
            continue
        cur_value = float(current[figure]["value"])
        delta = relative_delta(base_value, cur_value)
        verdict = f"{delta:+8.1%}"
        if delta < -threshold:
            failures += 1
            verdict += "  FAIL"
        print(
            f"{figure.ljust(width)}  {label:22s}  {base_value:12.4g}  "
            f"{cur_value:12.4g}  {verdict}"
        )
    for figure in sorted(set(current) - set(baseline)):
        cur_value = float(current[figure]["value"])
        label = str(current[figure].get("metric", "?"))
        print(
            f"{figure.ljust(width)}  {label:22s}  {'(new)':>12s}  "
            f"{cur_value:12.4g}  {'new':>8s}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on perf-trajectory regressions vs. the baseline."
    )
    parser.add_argument("current", help="BENCH_PR<k>.json of this run")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="maximum tolerated relative drop (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="halve every headline of CURRENT in memory and require the "
        "gate to go red (exit 0 only if it does)",
    )
    args = parser.parse_args(argv)
    baseline_payload = load_payload(args.baseline)
    current_payload = load_payload(args.current)
    check_same_context(baseline_payload, current_payload)
    current = current_payload["figures"]
    if args.self_test:
        current = {
            figure: {**entry, "value": float(entry["value"]) / 2.0}
            for figure, entry in current.items()
        }
    failures = compare(baseline_payload["figures"], current, args.threshold)
    if args.self_test:
        if failures:
            print(
                f"\nself-test OK: a 2x slowdown turned {failures} "
                "figure(s) red"
            )
            return 0
        print("\nself-test FAILED: the gate did not detect a 2x slowdown")
        return 1
    if failures:
        print(
            f"\n{failures} figure(s) regressed more than "
            f"{args.threshold:.0%} (or went missing) vs. {args.baseline}"
        )
        return 1
    print(f"\nperf trajectory OK vs. {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
