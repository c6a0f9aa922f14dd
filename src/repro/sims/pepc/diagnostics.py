"""Diagnostics for the plasma simulation: energies, tree stats."""

from __future__ import annotations

import numpy as np

from repro.sims.pepc.tree import Octree


def kinetic_energy(velocities: np.ndarray, masses: np.ndarray) -> float:
    v2 = np.einsum("ij,ij->i", velocities, velocities)
    return float(0.5 * np.sum(np.asarray(masses) * v2))


def temperature_proxy(velocities: np.ndarray, masses: np.ndarray) -> float:
    """Mean kinetic energy per particle — the 'cold, ordered state' metric
    for the equilibrium-assist steering feature (section 3.4)."""
    n = max(1, len(velocities))
    return kinetic_energy(velocities, masses) / n


def tree_stats(tree: Octree) -> dict:
    """Structural summary shipped alongside domain boxes for debugging."""
    counts = [node.count for node in tree.walk() if node.is_leaf]
    return {
        "nodes": tree.node_count,
        "leaves": tree.leaf_count,
        "max_depth": tree.max_depth,
        "mean_leaf_occupancy": float(np.mean(counts)) if counts else 0.0,
    }
