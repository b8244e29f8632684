"""Benchmark harness: one experiment per paper figure/table."""
