"""Deterministic identifier generation.

Everything in the simulated grid needs unique names (data objects, grid
service handles, job identifiers).  Real systems use UUIDs; we use
deterministic counters seeded per allocator so that runs are reproducible
and test assertions can name the ids they expect.
"""

from __future__ import annotations

import itertools
import random


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

    def __call__(self) -> str:
        return self.next()


def token_hex(rng: random.Random, nbytes: int = 8) -> str:
    """Deterministic stand-in for :func:`secrets.token_hex`.

    Uses the caller's seeded ``random.Random`` so that security tokens in
    the simulated middleware are reproducible across runs.
    """
    return "".join(f"{rng.randrange(256):02x}" for _ in range(nbytes))
