"""Tier-1 checks of the host benchmark itself (quick sizes, seconds).

Not a smoke-lane test: it runs in the default suite, so a change that
breaks the benchmark's schema, its tracer bookkeeping, its failure
accounting or its gate fails CI rather than the next measurement.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.host import child, compare, run  # noqa: E402
from benchmarks.host import metrics as M  # noqa: E402
from benchmarks.host import workloads as W  # noqa: E402
from benchmarks.host.trace import Tracer, targets  # noqa: E402

QUICK = 1.0 / child.QUICK_DIVISOR


def quick(name: str, **options):
    return W.WORKLOADS[name](7, M.SCALES[name] * QUICK, **options)


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_matches_the_metric_definitions(manifest):
    assert manifest == M.manifest(
        manifest["command"], ["benchmarks/host"], run.DEFAULT_SECONDS
    )
    assert manifest["command"][-1] == "benchmarks/host/run.py"
    assert [w["name"] for w in manifest["workloads"]] == list(W.WORKLOADS)
    assert len(manifest["per_layer"]) <= 128
    assert {m["name"] for m in manifest["end_to_end"]} >= {"host_tps", "setup_s"}


def test_contract_output_matches_manifest(manifest):
    """The driver's command line, at quick size: the last stdout line
    carries exactly the manifest's metrics, name for name, with units."""
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, *manifest["command"][1:], "--workload",
             "serve_sharded", "--seed", "7", "--seconds", "1", "--trace",
             str(trace), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(report) == {"correct", "attempted", "failed", "metrics"}
        assert report["correct"] is True and report["failed"] == 0
        assert report["attempted"] >= 1
        assert {k: v["unit"] for k, v in report["metrics"].items()} == {
            m["name"]: m["unit"] for m in manifest[section]
        }
    layers = report["metrics"]
    assert layers["core.backends.launch.fallbacks"]["value"] == 0
    assert layers["core.backends.vec_over_interp"]["value"] > 0
    assert layers["cluster.durability.wal_records"]["value"] > 0


def test_tracer_self_times_sum_to_the_root_and_wrappers_come_off():
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.region("setup", "setup"):
            workload = quick("cluster_recover")
        with tracer.region("timed", "timed"):
            workload.run()
    finally:
        tracer.uninstall()
    root = next(s for s in tracer.spans if s[2] == "timed")
    table = tracer.layer_table("timed")
    total = sum(self_s for self_s, _calls in table.values())
    assert total == pytest.approx(root[5] - root[4], rel=0.01)
    assert table["cluster.durability"][1] > 0
    assert table["cluster.elastic"][1] == 1
    # Spans of one bulk share a bulk_id; the root belongs to none.
    bulk_ids = {s[6] for s in tracer.spans if s[3] == "core.engine"}
    assert root[6] == 0 and 0 not in bulk_ids and len(bulk_ids) > 1
    events = tracer.chrome_events()
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    # Nothing leaks into other tests.
    for owner, attr, _layer, _options in targets():
        raw = owner.__dict__[attr]
        fn = getattr(raw, "__func__", raw)
        assert not hasattr(fn, "__wrapped__"), (owner, attr)


def test_injected_shed_raises_fail_share():
    workload = quick("serve_overload", max_pending=64)
    outcome = workload.run()
    assert outcome.shed > 0
    assert child.accounting_failures(outcome) >= outcome.shed
    _failed, notes = child.verify(workload, outcome)
    assert any("shed" in note for note in notes)


def test_injected_oracle_mismatch_raises_fail_share():
    from repro.workloads import tm1

    workload = quick("serve_overload")
    outcome = workload.run()
    assert child.accounting_failures(outcome) == 0
    assert child.verify(workload, outcome)[0] == 0
    workload.engine.adapter.write(tm1.SUBSCRIBER, "vlr_location", 0, 123456789)
    failed, notes = child.verify(workload, outcome)
    assert failed >= 1 and any("oracle" in note for note in notes)


def _summary(values, *, better="higher", bound=0.10, exact=False):
    entry = run.summarise(values)
    entry.update(unit="x", better=better, bound=bound, exact=exact)
    return entry


@pytest.mark.parametrize(
    "base, new, options, expected",
    [
        ([100, 101, 99, 100, 100], [100, 102, 99, 101, 100], {}, "same"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], {}, "worse"),
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], {}, "better"),
        # Wider than the bound and overlapping: cannot tell.
        ([100, 130, 70, 100, 115], [95, 125, 72, 99, 110], {}, "unresolved"),
        # Wider than the bound, but every new run beats every base run.
        ([100, 130, 70, 100, 115], [200, 260, 140, 200, 230], {}, "better"),
        ([1.0] * 5, [1.2] * 5, {"better": "lower"}, "worse"),
        ([2.5] * 3, [2.5 + 1e-12] * 3, {"exact": True}, "same"),
        ([2.5] * 3, [2.6] * 3, {"exact": True, "better": "lower"}, "worse"),
        ([0.0] * 3, [0.0] * 3, {"exact": True, "better": "lower"}, "same"),
    ],
)
def test_compare_verdicts(base, new, options, expected):
    assert compare.verdict(
        _summary(base, **options), _summary(new, **options), same_seed=True
    ) == expected


def test_compare_exit_code_and_quick_refusal(tmp_path):
    def document(values, comparable=True):
        return {
            "comparable": comparable,
            "provenance": {"seed": 29},
            "workloads": {"w": {"end_to_end": {"host_tps": _summary(values)}}},
        }

    paths = {}
    for name, doc in {
        "base": document([100, 101, 99]),
        "slow": document([70, 71, 69]),
        "quick": document([100, 101, 99], comparable=False),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert compare.main([str(paths["base"]), str(paths["base"])]) == 0
    assert compare.main([str(paths["base"]), str(paths["slow"])]) == 1
    assert compare.main([str(paths["base"]), str(paths["quick"])]) == 2
