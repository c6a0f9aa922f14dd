"""Space-filling-curve domain decomposition for PEPC.

Section 3.4 ships "information on the tree structure, at present
consisting of a set of node coordinates representing each processor
domain" so the user can see "tree domains as transparent or solid boxes".
This module computes exactly that: a Morton-curve partition of the
particles over P virtual processors, plus each processor's bounding box.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.parallel.decomp import morton_partition


def assign_domains(
    positions: np.ndarray, nranks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partition particles over ``nranks`` processors along the SFC.

    Returns ``(proc (N,), boxes (nranks, 2, 3))`` where ``proc[i]`` is the
    owning processor of particle ``i`` and ``boxes[r]`` the (lo, hi)
    bounding box of processor ``r``'s particles (degenerate boxes for
    empty processors collapse to the domain centre).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise SimulationError("positions must be (N, 3)")
    if nranks < 1:
        raise SimulationError("nranks must be >= 1")
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    owner, lists = morton_partition(positions, nranks, lo, lo + span)
    # The block distribution gives earlier ranks the remainder, so the
    # ranks that own particles come first; their bounding boxes are one
    # segmented min/max over the particles in curve order.
    sizes = [len(idx) for idx in lists]
    owning = sum(1 for size in sizes if size)
    starts = np.cumsum([0] + sizes[: owning - 1])
    along_curve = positions[np.concatenate(lists)]
    boxes = np.empty((nranks, 2, 3))
    boxes[:owning, 0] = np.minimum.reduceat(along_curve, starts, axis=0)
    boxes[:owning, 1] = np.maximum.reduceat(along_curve, starts, axis=0)
    boxes[owning:] = 0.5 * (lo + hi)
    return owner, boxes
