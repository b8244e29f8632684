"""GPUTx core: bulk execution model, T-dependency graph, strategies."""
