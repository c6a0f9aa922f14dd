"""Parallel-computing substrate.

PEPC is "a new plasma simulation code" running on massively parallel
systems (paper section 3.4).  Here every steered simulation runs in one
process, and PEPC's parallelism reaches the user only as its domain
boxes, so this package is the one piece of it that runs:

* :mod:`repro.parallel.decomp` — domain decomposition helpers, including
  the Morton space-filling-curve keys PEPC's hashed oct-tree uses.
"""

from repro.parallel.decomp import (
    interleave_bits3,
    morton_key,
    morton_partition,
    slab_partition,
)

__all__ = [
    "slab_partition",
    "morton_key",
    "morton_partition",
    "interleave_bits3",
]
