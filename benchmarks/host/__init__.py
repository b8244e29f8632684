"""Host-clock benchmark of the GPUTx reproduction (see README.md)."""
