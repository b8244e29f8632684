"""The simulated GPU substrate (SIMT engine, cost model, primitives).

This package substitutes for CUDA on the paper's NVIDIA Tesla C1060 --
see "Deviations from the paper" in docs/ARCHITECTURE.md for the
rationale. It never imports from the rest of the library, so it can be
reused standalone.
"""
