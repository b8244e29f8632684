"""Noise-aware gate between two host-benchmark result files.

``python3 benchmarks/host/compare.py BASE.json NEW.json`` prints, per
workload x end-to-end metric: base and new medians, their ratio *with
its base*, the IQR of each side, the metric's bound, and a verdict:

* ``worse``  -- the new median is worse than the base's by more than
  the bound (exit code 1);
* ``better`` -- it is better by more than the base's own IQR;
* ``same``   -- neither;
* ``unresolved`` -- either side's IQR / median exceeds the bound, so
  the runs cannot tell, *unless* one side strictly dominates (every
  new value better, or every new value worse, than every base value).
  Read it as "measure again, longer", never as "unchanged".

The simulated-clock metrics and ``fail_share`` come from a
deterministic simulator: when both files were made from the same seed
they must agree within 1e-9 relative, whatever the bound says.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

EXACT_RTOL = 1e-9
VERDICTS = ("better", "same", "worse", "unresolved")


def verdict(base: dict, new: dict, *, same_seed: bool) -> str:
    """Compare one metric's two summaries (see ``run.summarise``)."""
    higher = base["better"] == "higher"
    b, n = base["median"], new["median"]
    if base["exact"] and same_seed:
        if abs(n - b) <= EXACT_RTOL * max(abs(b), abs(n)):
            return "same"
        return "better" if (n > b) == higher else "worse"
    if b == 0:
        return "same" if n == 0 else ("better" if higher else "worse")
    gain = (n - b) / abs(b) if higher else (b - n) / abs(b)
    bound = base["bound"]
    spread_b = (base["q3"] - base["q1"]) / abs(b)
    spread_n = (new["q3"] - new["q1"]) / abs(n) if n else 0.0
    if max(spread_b, spread_n) > bound:
        if higher:
            wins = min(new["values"]) > max(base["values"])
            loses = max(new["values"]) < min(base["values"])
        else:
            wins = max(new["values"]) < min(base["values"])
            loses = min(new["values"]) > max(base["values"])
        if not (wins or loses):
            return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread_b:
        return "better"
    return "same"


def compare(base_doc: dict, new_doc: dict) -> List[dict]:
    same_seed = (
        base_doc["provenance"]["seed"] == new_doc["provenance"]["seed"]
    )
    rows = []
    for workload, base_entry in base_doc["workloads"].items():
        new_entry = new_doc["workloads"].get(workload)
        if new_entry is None:
            continue
        for metric, base in base_entry["end_to_end"].items():
            new = new_entry["end_to_end"].get(metric)
            if new is None:
                continue
            rows.append({
                "workload": workload,
                "metric": metric,
                "unit": base["unit"],
                "base": base["median"],
                "new": new["median"],
                "ratio": new["median"] / base["median"]
                if base["median"] else None,
                "iqr_base": base["q3"] - base["q1"],
                "iqr_new": new["q3"] - new["q1"],
                "bound": base["bound"],
                "verdict": verdict(base, new, same_seed=same_seed),
            })
    return rows


def format_rows(rows: Sequence[dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<15} {'base':>12} {'new':>12} "
        f"{'ratio (of base)':>22} {'IQR base':>10} {'IQR new':>10} "
        f"{'bound':>6}  verdict"
    ]
    for r in rows:
        ratio = (
            f"{r['ratio']:.3f}x of {r['base']:.5g}"
            if r["ratio"] is not None else "n/a (base 0)"
        )
        lines.append(
            f"{r['workload']:<16} {r['metric']:<15} {r['base']:>12.5g} "
            f"{r['new']:>12.5g} {ratio:>22} {r['iqr_base']:>10.3g} "
            f"{r['iqr_new']:>10.3g} {r['bound']:>6.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.base, args.new):
        with open(path) as handle:
            doc = json.load(handle)
        if not doc.get("comparable", False):
            print(f"{path}: made with --quick, not comparable", file=sys.stderr)
            return 2
        docs.append(doc)
    rows = compare(*docs)
    print(format_rows(rows))
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in VERDICTS}
    print("  ".join(f"{v}: {counts[v]}" for v in VERDICTS))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
