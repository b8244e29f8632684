"""ClusterOptions / EngineOptions: the one configuration surface.

``ClusterTx`` takes a ``ClusterOptions``, ``GPUTx`` an
``EngineOptions``; anything else -- the other constructor's options
type, a plain dict, a removed keyword argument -- is rejected up
front rather than translated.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.cluster.durability.failover import DurabilityConfig
from repro.cluster.elastic import ElasticConfig
from repro.cluster.runtime import ClusterTx
from repro.config import ClusterOptions
from repro.core.backends import EngineOptions
from repro.core.engine import GPUTx
from repro.errors import ConfigError, check_real
from repro.serve.admission import AdmissionController
from repro.serve.controller import (
    AdaptiveBulkFormer,
    FixedBulkFormer,
    SLOConfig,
)
from repro.serve.runtime import ServeRuntime

from tests.conftest import BANK_PROCEDURES, build_bank_db


def bank_cluster(**kwargs):
    return ClusterTx(
        build_bank_db(32), procedures=BANK_PROCEDURES, n_shards=2, **kwargs
    )


class TestClusterOptionsValue:
    def test_defaults(self):
        opts = ClusterOptions()
        assert isinstance(opts.engine, EngineOptions)
        assert opts.durability is None
        assert opts.cross_shard == "parallel"
        assert opts.elastic is None

    def test_invalid_cross_shard_rejected(self):
        with pytest.raises(ConfigError, match="cross_shard"):
            ClusterOptions(cross_shard="magic")

    def test_engine_must_be_engine_options(self):
        with pytest.raises(ConfigError, match="engine"):
            ClusterOptions(engine={"backend": "vector"})


class TestEngineOptionsValue:
    @pytest.mark.parametrize("backend", [["vectorized"], None, 1, "vector"])
    def test_backend_must_be_a_known_name(self, backend):
        with pytest.raises(ConfigError, match="backend"):
            EngineOptions(backend=backend)

    @pytest.mark.parametrize("strict", ["no", "yes", 0, 1, "", None])
    def test_strict_vector_must_be_a_bool(self, strict):
        with pytest.raises(ConfigError, match="strict_vector"):
            EngineOptions(strict_vector=strict)

    def test_the_environment_sets_no_option(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_VECTOR", "1")
        assert EngineOptions().strict_vector is False
        assert EngineOptions(strict_vector=True).strict_vector is True


class TestCheckReal:
    """``errors.check_real``: the one owner of "a positive real"."""

    @pytest.mark.parametrize(
        "value", [0, -1.0, float("nan"), float("-inf"), True, "1", None]
    )
    def test_refused(self, value):
        with pytest.raises(ConfigError, match="wait must be a positive"):
            check_real("wait", value)

    def test_accepted_and_normalised(self):
        assert check_real("wait", 2) == 2.0
        assert type(check_real("wait", np.float32(0.5))) is float
        assert check_real("wait", float("inf")) == float("inf")
        with pytest.raises(ConfigError, match="positive finite"):
            check_real("wait", float("inf"), finite=True)
        assert check_real("wait", 1e300, finite=True) == 1e300


class TestNewPath:
    def test_cluster_options_configures_everything_silently(self, recwarn):
        opts = ClusterOptions(
            engine=EngineOptions(backend="vectorized"),
            durability=DurabilityConfig(),
            cross_shard="serial",
            elastic=ElasticConfig(),
        )
        cluster = bank_cluster(router="range", options=opts)
        assert not recwarn.list
        assert cluster.durability is not None
        assert cluster.cross_shard == "serial"
        assert cluster.elastic is not None
        assert all(shard.options is opts.engine for shard in cluster.shards)

    def test_default_options(self):
        cluster, default = bank_cluster(), ClusterOptions()
        assert (cluster.durability, cluster.elastic) == (None, None)
        assert cluster.cross_shard == default.cross_shard
        assert all(shard.options == default.engine for shard in cluster.shards)
        engine = GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES)
        assert engine.options == EngineOptions()

    def test_gputx_rejects_cluster_options(self):
        with pytest.raises(ConfigError, match="EngineOptions"):
            GPUTx(
                build_bank_db(8),
                procedures=BANK_PROCEDURES,
                options=ClusterOptions(),
            )

    def test_clustertx_rejects_engine_options(self):
        with pytest.raises(ConfigError, match="ClusterOptions"):
            bank_cluster(options=EngineOptions())

    @pytest.mark.parametrize(
        "kwarg",
        [
            {"durability": DurabilityConfig()},
            {"cross_shard": "serial"},
            {"elastic": ElasticConfig()},
        ],
        ids=lambda kwarg: next(iter(kwarg)),
    )
    def test_removed_kwarg_is_type_error(self, kwarg):
        with pytest.raises(TypeError, match=next(iter(kwarg))):
            bank_cluster(**kwarg)


class TestResolvers:
    """Neither constructor resolves a foreign value into its options."""

    def test_unknown_options_type_rejected(self):
        with pytest.raises(ConfigError, match="ClusterOptions"):
            bank_cluster(options={"backend": "vector"})
        with pytest.raises(ConfigError, match="EngineOptions"):
            GPUTx(build_bank_db(8), procedures=BANK_PROCEDURES, options=42)


class TestOptionSurfaceIsPinned:
    """The exact fields of every options object: a new knob (or a
    removed one) has to edit this table, so it is a deliberate diff.
    docs/API.md's "Options" table names the production callers that
    justify each one."""

    @pytest.mark.parametrize(
        "cls, fields",
        [
            (EngineOptions, {"backend", "strict_vector"}),
            (
                ClusterOptions,
                {"engine", "durability", "cross_shard", "elastic"},
            ),
            (DurabilityConfig, {"checkpoint_interval", "n_replicas"}),
            (ElasticConfig, {"min_queue_depth", "max_migrations"}),
            (
                SLOConfig,
                {"target_p95_s", "min_bulk", "max_bulk", "max_form_wait_s"},
            ),
        ],
    )
    def test_fields(self, cls, fields):
        assert {f.name for f in dataclasses.fields(cls)} == fields

    @pytest.mark.parametrize(
        "cls, arguments",
        [
            (GPUTx, {"db", "procedures", "block_size", "options"}),
            (
                ClusterTx,
                {"db", "procedures", "n_shards", "router", "options"},
            ),
            (FixedBulkFormer, {"size", "max_form_wait_s"}),
            (AdaptiveBulkFormer, {"slo"}),
            (
                AdmissionController,
                {
                    "max_pending",
                    "max_pending_per_shard",
                    "router",
                    "registry",
                    "tenant_quotas",
                    "record_admitted",
                },
            ),
            (
                ServeRuntime,
                {"engine", "former", "admission", "strategy", "options"},
            ),
        ],
    )
    def test_constructor_arguments(self, cls, arguments):
        signature = inspect.signature(cls.__init__)
        assert set(signature.parameters) - {"self"} == arguments
