"""Diagnostics for the plasma simulation: energies."""

from __future__ import annotations

import numpy as np


def kinetic_energy(velocities: np.ndarray, masses: np.ndarray) -> float:
    v2 = np.einsum("ij,ij->i", velocities, velocities)
    return float(0.5 * np.sum(np.asarray(masses) * v2))


def temperature_proxy(velocities: np.ndarray, masses: np.ndarray) -> float:
    """Mean kinetic energy per particle — the 'cold, ordered state' metric
    for the equilibrium-assist steering feature (section 3.4)."""
    n = max(1, len(velocities))
    return kinetic_energy(velocities, masses) / n
