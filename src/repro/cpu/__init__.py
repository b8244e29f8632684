"""CPU counterpart: H-Store-style partitioned execution engine."""
