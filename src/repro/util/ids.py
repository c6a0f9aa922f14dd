"""Deterministic identifier generation.

Everything in the simulated grid needs unique names (data objects, grid
service handles, job identifiers).  Real systems use UUIDs; we use
deterministic counters seeded per allocator so that runs are reproducible
and test assertions can name the ids they expect.
"""

from __future__ import annotations

import itertools


class IdAllocator:
    """Allocates ``prefix-N`` style unique identifiers, counting from 1.

    Parameters
    ----------
    prefix:
        Human-readable namespace, e.g. ``"job"`` or ``"gsh"``.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._counter = itertools.count(1)

    def next(self) -> str:
        """Return the next identifier in this namespace."""
        return f"{self.prefix}-{next(self._counter)}"
