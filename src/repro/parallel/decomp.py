"""Domain decomposition helpers.

PEPC uses a hashed oct-tree with a space-filling-curve ordering to assign
contiguous key ranges to processors ("tree domains as transparent or solid
boxes" are exactly these per-processor key ranges, section 3.4).  LB3D
style lattice codes use slab decomposition.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError


def slab_partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-equal slabs.

    Returns ``[(start, stop), ...]``; earlier slabs get the remainder,
    matching the usual MPI block distribution.
    """
    if parts < 1:
        raise SimulationError("parts must be >= 1")
    if n < 0:
        raise SimulationError("n must be >= 0")
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size))
        start += size
    return out


#: (shift, mask) steps spreading a 21-bit integer so that bit b lands at
#: bit 3*b: each step moves the upper half of every bit group up by
#: twice the group's width and masks off what the move smeared.
_DILATE3 = (
    (32, 0x001F00000000FFFF),
    (16, 0x001F0000FF0000FF),
    (8, 0x100F00F00F00F00F),
    (4, 0x10C30C30C30C30C3),
    (2, 0x1249249249249249),
)


def interleave_bits3(x: np.ndarray, y: np.ndarray, z: np.ndarray, bits: int) -> np.ndarray:
    """Interleave three ``bits``-bit integer arrays into Morton keys.

    Vectorized bit-dilation: each coordinate's bit *b* lands at position
    ``3*b`` (x), ``3*b+1`` (y), ``3*b+2`` (z) of the key.  A coordinate
    that does not fit in ``bits`` bits is refused: dropping its high bits
    would give two distinct cells one key.
    """
    if bits < 1 or bits > 21:
        raise SimulationError("bits must be in [1, 21] for 64-bit keys")
    q = np.empty((3,) + np.broadcast(x, y, z).shape, dtype=np.uint64)
    q[0], q[1], q[2] = x, y, z
    if (q >> np.uint64(bits)).any():
        raise SimulationError(f"coordinates must be below 2**{bits}")
    spread = np.empty_like(q)
    for shift, mask in _DILATE3:
        np.left_shift(q, np.uint64(shift), out=spread)
        np.bitwise_or(q, spread, out=q)
        np.bitwise_and(q, np.uint64(mask), out=q)
    key = q[0]
    key |= q[1] << np.uint64(1)
    key |= q[2] << np.uint64(2)
    return key


def morton_key(
    positions: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    bits: int = 16,
) -> np.ndarray:
    """Morton (Z-order) keys for points in the box ``[lo, hi]``.

    Points are quantized to a ``2**bits`` grid per axis and bit-interleaved.
    Equal keys mean same leaf cell at that refinement.
    """
    positions = np.asarray(positions, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise SimulationError("positions must be (N, 3)")
    span = hi - lo
    if np.any(span <= 0):
        raise SimulationError("degenerate bounding box")
    scale = (2**bits - 1) / span
    q = np.clip(((positions - lo) * scale), 0, 2**bits - 1).astype(np.uint64)
    return interleave_bits3(q[:, 0], q[:, 1], q[:, 2], bits)


def morton_partition(
    positions: np.ndarray,
    nranks: int,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Assign points to ranks by contiguous Morton-key ranges.

    Returns ``(owner, index_lists)`` where ``owner[i]`` is the rank of
    point ``i`` and ``index_lists[r]`` the point indices owned by rank
    ``r`` in key order.  This is the PEPC-style SFC decomposition: spatial
    locality within a rank, near-equal counts across ranks.
    """
    keys = morton_key(positions, lo, hi)
    order = np.argsort(keys, kind="stable")
    n = len(order)
    owner = np.empty(n, dtype=np.int64)
    index_lists = []
    for r, (start, stop) in enumerate(slab_partition(n, nranks)):
        idx = order[start:stop]
        owner[idx] = r
        index_lists.append(idx)
    return owner, index_lists
