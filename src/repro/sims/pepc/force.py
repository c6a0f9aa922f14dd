"""Coulomb field evaluation: O(N^2) direct summation and O(N log N) tree.

Plummer-softened electrostatics in Gaussian-like units (k = 1):

    E(x)   = sum_j q_j (x - x_j) / (|x - x_j|^2 + eps^2)^{3/2}
    phi(x) = sum_j q_j / sqrt(|x - x_j|^2 + eps^2)

``direct_field`` is the paper's implicit baseline ("length- and
time-scales normally possible only with particle-in-cell" — i.e. what the
tree algorithm's O(N log N) buys relative to O(N^2) direct summation).
``tree_field`` walks the Barnes-Hut octree with the s/d < theta
multipole-acceptance criterion, vectorized *node-major*: each node is
tested against every candidate target at once, so the Python-level loop
is over tree nodes, not particles.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sims.pepc.tree import Octree


def _direct_sum(
    positions: np.ndarray,
    charges: np.ndarray,
    eps: float,
    targets: np.ndarray | None,
    exclude_self: bool,
    chunk: int,
    want_phi: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The one pairwise kernel behind :func:`direct_field` and
    :func:`direct_force`; ``phi`` is built only when asked for."""
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    if eps <= 0:
        raise SimulationError("softening eps must be positive")
    if chunk < 1:
        raise SimulationError("chunk must be >= 1")
    self_targets = targets is None
    tgt = positions if self_targets else np.asarray(targets, dtype=np.float64)
    n_t, n_s = len(tgt), len(positions)
    skip_self = self_targets and exclude_self
    E = np.empty((n_t, 3))
    phi = np.empty(n_t) if want_phi else None
    eps2 = eps * eps
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        # d[i, j] = tgt[start + i] - positions[j], one axis at a time: a
        # single broadcast subtraction iterates over the length-3 axis.
        d = np.empty((stop - start, n_s, 3))
        for axis in range(3):
            np.subtract(tgt[start:stop, axis, None], positions[:, axis], out=d[:, :, axis])
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        inv_r = 1.0 / np.sqrt(r2)
        inv_r3 = inv_r / r2
        w = charges * inv_r3  # (c, N)
        if skip_self:
            # the i == j pairs of this chunk are a strided diagonal of w
            w.reshape(-1)[start :: n_s + 1][: stop - start] = 0.0
        E[start:stop] = np.einsum("ij,ijk->ik", w, d)
        if want_phi:
            pw = charges * inv_r
            if skip_self:
                pw.reshape(-1)[start :: n_s + 1][: stop - start] = 0.0
            phi[start:stop] = pw.sum(axis=1)
    return E, phi


def direct_field(
    positions: np.ndarray,
    charges: np.ndarray,
    eps: float = 0.05,
    targets: np.ndarray | None = None,
    exclude_self: bool = True,
    chunk: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact pairwise field: returns ``(E (N,3), phi (N,))`` at targets.

    Chunked over targets to bound memory at ``chunk * N`` pair entries.
    ``exclude_self`` skips the i == j pair when targets are the sources.
    """
    return _direct_sum(positions, charges, eps, targets, exclude_self, chunk, True)


def direct_force(
    positions: np.ndarray, charges: np.ndarray, eps: float = 0.05, chunk: int = 256
) -> np.ndarray:
    """``direct_field(positions, charges, eps)[0]`` without building the
    potential — what a time step needs."""
    return _direct_sum(positions, charges, eps, None, True, chunk, False)[0]


def tree_field(
    tree: Octree,
    theta: float = 0.5,
    eps: float = 0.05,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Barnes-Hut field at every source particle.

    Returns ``(E (N,3), phi (N,), stats)`` where stats counts the
    monopole and direct interactions actually evaluated — the quantity
    that scales as N log N (FIG3 bench).
    """
    if not 0 < theta < 2.0:
        raise SimulationError("theta must be in (0, 2)")
    if eps <= 0:
        raise SimulationError("softening eps must be positive")
    positions = tree.positions
    charges = tree.charges
    n = len(positions)
    E = np.zeros((n, 3))
    phi = np.zeros(n)
    eps2 = eps * eps
    stats = {"monopole_interactions": 0, "direct_interactions": 0, "nodes_visited": 0}

    stack: list[tuple] = [(tree.root, np.arange(n, dtype=np.intp))]
    while stack:
        node, tidx = stack.pop()
        stats["nodes_visited"] += 1
        if node.is_leaf:
            src = node.indices
            d = positions[tidx, None, :] - positions[None, src, :]
            r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
            inv_r = 1.0 / np.sqrt(r2)
            inv_r3 = inv_r / r2
            same = tidx[:, None] == src[None, :]
            w = charges[None, src] * inv_r3
            w[same] = 0.0
            E[tidx] += np.einsum("ij,ijk->ik", w, d)
            pw = charges[None, src] * inv_r
            pw[same] = 0.0
            phi[tidx] += pw.sum(axis=1)
            stats["direct_interactions"] += int(same.size - same.sum())
            continue
        d = positions[tidx] - node.com[None, :]
        dist2 = np.einsum("ij,ij->i", d, d)
        dist = np.sqrt(dist2)
        with np.errstate(divide="ignore"):
            accept = (node.size < theta * dist)
        far = tidx[accept]
        if far.size:
            df = d[accept]
            r2 = dist2[accept] + eps2
            inv_r = 1.0 / np.sqrt(r2)
            inv_r3 = inv_r / r2
            E[far] += node.charge * inv_r3[:, None] * df
            phi[far] += node.charge * inv_r
            stats["monopole_interactions"] += int(far.size)
        near = tidx[~accept]
        if near.size:
            for child in node.children:
                stack.append((child, near))
    return E, phi, stats
