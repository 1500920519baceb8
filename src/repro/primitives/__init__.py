"""The SORT_SPLIT data path every queue runs.

* :mod:`~repro.primitives.inplace` — the NumPy reference: a fused,
  allocation-free SORT_SPLIT into caller-supplied destination rows
  (the arena storage hot path).  Simulated time for the GPU's merge
  path and bitonic stages is charged in closed form by
  :class:`repro.device.GpuCostModel`, not here.
* :mod:`~repro.primitives.kernels` — the backend registry that picks
  the reference or the compiled C core at run time.
"""

from .inplace import ScratchLedger, merge_into, sort_split_into

__all__ = ["ScratchLedger", "merge_into", "sort_split_into"]
