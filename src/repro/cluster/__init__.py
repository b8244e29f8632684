"""Sharded multi-GPU cluster runtime with pipelined bulk scheduling.

Scales the single-device GPUTx engine to N simulated GPUs: a
:class:`~repro.cluster.router.ShardRouter` partitions the database,
:class:`~repro.cluster.runtime.ClusterTx` executes single-shard waves
in parallel and, by default, conflict-partitions each cross-shard wave
into groups that run on their home shards in parallel (the serial
leader pass is the ``cross_shard="serial"`` baseline), and
:class:`~repro.cluster.pipeline.PipelineScheduler` overlaps PCIe
transfer of one bulk with kernel execution of the previous one.
"""
