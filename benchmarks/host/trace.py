"""Outside-in host-clock tracing: wrappers on public callables only.

:class:`Tracer.install` replaces each callable in :func:`targets` with
a wrapper that records a span ``{name, layer, start, end, parent,
bulk_id}`` in memory and bumps counts at the same boundary;
:meth:`Tracer.uninstall` puts every original back. Nothing inside
``src/`` is edited -- tracing inside the program is a later change
that will be checked against these numbers.

A span's self time is its duration minus the part its child spans
cover, accumulated as spans close. The root span is the timed region,
so the layers' self times sum to the traced end-to-end time by
construction. Tiny per-item callables (router lookups, cost formulas)
are *leaf* targets: timed and counted, but not kept as spans, so the
trace file stays loadable.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer that owns the harness's own loop inside the timed region.
BENCH_LAYER = "bench"
#: The parts of a traced run a span can fall in.
PHASES = ("setup", "timed", "check")

Hook = Callable[["Tracer", tuple, dict, Any, float], None]


class Tracer:
    """In-memory span recorder plus the monkey-patch bookkeeping."""

    def __init__(self) -> None:
        #: Closed, kept spans: (id, parent, name, layer, start, end,
        #: bulk_id, phase).
        self.spans: List[tuple] = []
        #: (phase, layer, name) -> [self seconds, calls, inclusive seconds].
        self.acc: Dict[Tuple[str, str, str], List[float]] = defaultdict(
            lambda: [0.0, 0, 0.0]
        )
        #: Counts and sample lists filled by hooks.
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: "setup" | "timed" | "check": which part of the run is live.
        self.phase = "setup"
        self._stack: List[list] = []
        self._next_id = 0
        self._bulk_seq = 0
        self._bulk_open = False
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str, bulk: bool) -> list:
        opened_bulk = bulk and not self._bulk_open
        if opened_bulk:
            self._bulk_seq += 1
            self._bulk_open = True
        stack = self._stack
        # [id, parent, name, layer, start, child seconds, bulk_id,
        #  opened_bulk]
        frame = [
            self._next_id,
            stack[-1][0] if stack else -1,
            name,
            layer,
            0.0,
            0.0,
            self._bulk_seq if self._bulk_open else 0,
            opened_bulk,
        ]
        self._next_id += 1
        stack.append(frame)
        frame[4] = time.perf_counter()
        return frame

    def _close(self, frame: list, keep: bool) -> float:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[4]
        acc = self.acc[(self.phase, frame[3], frame[2])]
        acc[0] += duration - frame[5]
        acc[1] += 1
        acc[2] += duration
        if stack:
            stack[-1][5] += duration
        if frame[7]:
            self._bulk_open = False
        if keep:
            self.spans.append(
                (frame[0], frame[1], frame[2], frame[3], frame[4], end,
                 frame[6], self.phase)
            )
        return duration

    @contextmanager
    def region(self, name: str, phase: str, layer: str = BENCH_LAYER
               ) -> Iterator[None]:
        """A root span opened by the harness itself (the timed region,
        the set-up, the output checks)."""
        previous, self.phase = self.phase, phase
        frame = self._open(name, layer, bulk=False)
        try:
            yield
        finally:
            self._close(frame, keep=True)
            self.phase = previous

    def _wrapper(self, fn: Callable, name: str, layer: str, leaf: bool,
                 bulk: bool, hook: Optional[Hook]) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._open(name, layer, bulk)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame, keep=not leaf)
            if hook is not None:
                hook(tracer, args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # Patching.
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str, *, leaf: bool = False,
             bulk: bool = False, hook: Optional[Hook] = None) -> None:
        """Replace ``owner.attr`` (a class's method or a module's
        function) with a traced wrapper. A module-level function is
        patched in every loaded ``repro`` module that imported it by
        name, because that is where its callers look it up."""
        raw = owner.__dict__[attr]
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(
                self._wrapper(raw.__func__, label, layer, leaf, bulk, hook)
            )
            self._set(owner, attr, raw, wrapped)
            return
        wrapped = self._wrapper(raw, label, layer, leaf, bulk, hook)
        if isinstance(owner, type):
            self._set(owner, attr, raw, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or module is None:
                continue
            if module.__dict__.get(attr) is raw:
                self._set(module, attr, raw, wrapped)

    def _set(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        for owner, attr, layer, options in targets():
            self.wrap(owner, attr, layer, **options)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Read-out.
    # ------------------------------------------------------------------
    def layer_table(self, phase: str = "timed") -> Dict[str, Tuple[float, int]]:
        """``layer -> (self seconds, calls)`` over one phase."""
        table: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for (p, layer, _name), (self_s, calls, _incl) in self.acc.items():
            if p == phase:
                table[layer][0] += self_s
                table[layer][1] += calls
        return {k: (v[0], int(v[1])) for k, v in table.items()}

    def named(self, *names: str, phase: str = "timed"
              ) -> Tuple[float, int, float]:
        """(self seconds, calls, inclusive seconds) summed over the
        callables whose span name ends with one of ``names``."""
        out = [0.0, 0, 0.0]
        for (p, _layer, n), acc in self.acc.items():
            if p == phase and n.endswith(names):
                out = [a + b for a, b in zip(out, acc)]
        return out[0], int(out[1]), out[2]

    def chrome_events(self) -> List[dict]:
        """``ph:"X"`` complete events in microseconds -- loads in
        ``chrome://tracing`` and Perfetto. Spans of one bulk share
        ``args.bulk_id``."""
        if not self.spans:
            return []
        origin = min(span[4] for span in self.spans)
        return [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent,
                         "bulk_id": bulk_id, "phase": phase},
            }
            for span_id, parent, name, layer, start, end, bulk_id, phase
            in sorted(self.spans, key=lambda s: s[4])
        ]


# ----------------------------------------------------------------------
# Hooks: counts taken at the same boundary as the span.
# ----------------------------------------------------------------------
def _count_result_len(key: str) -> Hook:
    def hook(tracer: Tracer, args, kwargs, result, duration) -> None:
        tracer.counts[key] += len(result)

    return hook


def _count_arg_len(key: str, index: int) -> Hook:
    def hook(tracer: Tracer, args, kwargs, result, duration) -> None:
        tracer.counts[key] += len(args[index])

    return hook


def _engine_call(tracer: Tracer, args, kwargs, result, duration) -> None:
    tracer.samples["core.engine.call_txns"].append(len(args[1]))
    tracer.samples["core.engine.call_ms"].append(duration * 1e3)
    tracer.counts["core.engine.results"] += len(result.results)
    tracer.counts["core.engine.aborted"] += result.aborted
    if result.results:
        tracer.counts[f"core.chooser.picked_{result.strategy}"] += 1


def _launch_partitions(tracer: Tracer, args, kwargs, result, duration) -> None:
    tracer.counts["core.backends.launch.lanes"] += sum(
        len(txns) for _pid, txns in args[2]
    )


def _cluster_bulk(tracer: Tracer, args, kwargs, result, duration) -> None:
    for wave in result.waves:
        tracer.counts["cluster.runtime.waves"] += 1
        if wave.kind == "parallel":
            tracer.counts["cluster.runtime.sub_bulks"] += len(wave.shard_sizes)
            tracer.counts["cluster.runtime.sub_bulk_txns"] += sum(
                wave.shard_sizes.values()
            )


def targets() -> List[Tuple[Any, str, str, dict]]:
    """(owner, attribute, layer, options) for every wrapped public
    callable -- the layer table of the README."""
    import repro.cluster.durability.checkpoint as checkpoint_mod
    import repro.cluster.durability.replay as replay_mod
    import repro.core.backends.replay as cost_replay_mod
    import repro.core.kset as kset_mod
    import repro.serve.metrics as serve_metrics
    from repro.cluster.coordinator import CrossShardCoordinator
    from repro.cluster.durability.failover import ShardDurability
    from repro.cluster.durability.wal import ShardWAL
    from repro.cluster.router import (
        HashShardRouter, RangeShardRouter, ShardRouter,
    )
    from repro.cluster.runtime import ClusterTx
    from repro.core.backends import InterpretedBackend, VectorizedBackend
    from repro.core.engine import GPUTx
    from repro.core.executor import StrategyExecutor
    from repro.core.kset import IncrementalKSetExtractor
    from repro.core.profiler import BulkProfiler
    from repro.core.strategies.kset_exec import KsetExecutor
    from repro.core.strategies.part import PartExecutor
    from repro.core.strategies.tpl import TplExecutor
    from repro.core.txn import ResultPool, TransactionPool
    from repro.cpu.engine import CpuEngine
    from repro.gpu.primitives import PrimitiveLibrary
    from repro.gpu.simt import SIMTEngine
    from repro.gpu.transfer import PCIeModel
    from repro.serve.admission import AdmissionController
    from repro.serve.controller import AdaptiveBulkFormer
    from repro.serve.runtime import ServeRuntime
    from repro.serve.stream import ArrivalStream
    from repro.storage.catalog import Database, StoreAdapter
    from repro.workloads import smallbank, tm1, tpcb, tpcc

    out: List[Tuple[Any, str, str, dict]] = []

    def add(layer: str, owner: Any, *attrs: str, **options: Any) -> None:
        for attr in attrs:
            out.append((owner, attr, layer, options))

    add("serve.runtime", ServeRuntime, "run")
    add("serve.stream", ArrivalStream, "pop_until",
        hook=_count_result_len("serve.stream.arrivals"))
    add("serve.admission", AdmissionController, "offer_batch", "note_executed")
    add("serve.admission", AdmissionController, "tenant_of", leaf=True)
    add("serve.controller", AdaptiveBulkFormer, "target_size", leaf=True)
    add("serve.controller", AdaptiveBulkFormer, "observe")
    add("serve.metrics", serve_metrics.LatencySummary, "of")
    add("serve.metrics", serve_metrics.Percentiles, "of")
    add("serve.metrics", serve_metrics, "tenant_summaries")
    add("core.txn", TransactionPool, "submit_batch", "submit_specs", "requeue")
    add("core.txn", TransactionPool, "take", "peek", leaf=True)
    add("core.txn", ResultPool, "record_many")
    add("core.engine", GPUTx, "execute_bulk", bulk=True, hook=_engine_call)
    add("core.profiler", BulkProfiler, "profile")
    add("core.kset", IncrementalKSetExtractor, "pop_zero_set")
    add("core.kset", kset_mod, "compute_ranks")
    for strategy in (KsetExecutor, PartExecutor, TplExecutor):
        add("core.strategies", strategy, "execute")
    add("core.executor", StrategyExecutor, "finalize_kernel")
    for backend in (VectorizedBackend, InterpretedBackend):
        add("core.backends.launch", backend, "launch_wave", "launch_locked",
            hook=_count_arg_len("core.backends.launch.lanes", 2))
        add("core.backends.launch", backend, "launch_partitions",
            hook=_launch_partitions)
    add("core.backends.replay", cost_replay_mod, "replay_kernel")
    add("gpu", PrimitiveLibrary, "map_cost", "scan_cost", "radix_pass_cost",
        "sort_cost", "binary_search_cost", leaf=True)
    add("gpu", PrimitiveLibrary, "radix_partition")
    add("gpu", PCIeModel, "to_device", "to_host", leaf=True)
    add("gpu", SIMTEngine, "launch")
    add("storage", StoreAdapter, "gather_bulk", "scatter_bulk", "insert_bulk",
        "apply_batch")
    add("storage", Database, "fork")
    add("cluster.runtime", ClusterTx, "execute_bulk", bulk=True,
        hook=_cluster_bulk)
    add("cluster.router", ShardRouter, "shards_of", leaf=True)
    for router in (HashShardRouter, RangeShardRouter):
        add("cluster.router", router, "shard_of_key", "shard_of_keys",
            leaf=True)
    add("cluster.coordinator", CrossShardCoordinator, "execute",
        "execute_parallel",
        hook=_count_arg_len("cluster.coordinator.cross_txns", 1))
    add("cluster.durability", ShardDurability, "commit_wave", "note_bulk",
        "promote", "reseed")
    add("cluster.durability", ShardWAL, "append")
    add("cluster.durability", checkpoint_mod, "take_checkpoint")
    add("cluster.durability", replay_mod, "replay_records")
    add("cluster.durability", ClusterTx, "recover_shard")
    add("cluster.elastic", ClusterTx, "migrate")
    for module in (tm1, tpcb, smallbank, tpcc):
        add("workloads", module, "build_database")
        for attr in sorted(vars(module)):
            if attr.startswith("generate_"):
                add("workloads", module, attr)
    add("cpu", CpuEngine, "execute")
    return out
