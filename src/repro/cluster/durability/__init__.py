"""Durability for the sharded cluster: WAL, checkpoints, failover.

The paper's durability story is one sentence -- "applications may
achieve durability with non-logging methods, such as replications on
multiple machines" (Appendix D) -- and this package is that sentence,
engineered: per-shard write-ahead logs of committed waves
(:mod:`~repro.cluster.durability.wal`), copy-on-write checkpoints of
each partition (:mod:`~repro.cluster.durability.checkpoint`), K
synchronous replicas fed over the simulated interconnect with
promotion on failure (:mod:`~repro.cluster.durability.failover`), and
deterministic byte-identical replay
(:mod:`~repro.cluster.durability.replay`). Definition 1 is what makes
this cheap: committed bulks are equivalent to a serial timestamp-order
execution, so a physical redo log replayed in order reproduces the
exact store state -- no quiescing, no cross-shard coordination on
recovery.
"""
