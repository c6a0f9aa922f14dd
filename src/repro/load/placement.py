"""Pluggable placement policies: which site gets the next session.

A policy sees the spec at the head of the admission queue and the
capacity ledger, and answers with a site index — or ``None`` when no
acceptable site has room, which leaves the session queued.  Policies are
deterministic given their seed, like everything else in the DES.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import LoadError
from repro.load.capacity import CapacityLedger


class PlacementPolicy:
    """Interface: ``choose(spec, ledger) -> site index or None``."""

    def choose(self, spec, ledger: CapacityLedger) -> Optional[int]:
        raise NotImplementedError


class LeastLoaded(PlacementPolicy):
    """The site with the most free slots; ties break to the lowest index.

    The classic global-knowledge baseline: best balance, but in a real
    federation it implies fresh load data from every site on every
    decision.
    """

    def choose(self, spec, ledger: CapacityLedger) -> Optional[int]:
        room = ledger.sites_with_room()
        if not room:
            return None
        return max(room, key=lambda i: (ledger.free(i), -i))


class PowerOfTwoChoices(PlacementPolicy):
    """Sample two random sites with room, take the less loaded.

    The Mitzenmacher result: two random probes get exponentially better
    balance than one, without least-loaded's global view.  Seeded RNG
    keeps runs reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, spec, ledger: CapacityLedger) -> Optional[int]:
        room = ledger.sites_with_room()
        if not room:
            return None
        if len(room) == 1:
            return room[0]
        a, b = self._rng.sample(room, 2)
        # Less inflight wins; ties break to the lower index for determinism.
        return min((a, b), key=lambda i: (ledger.inflight(i), i))


POLICIES = {
    "least-loaded": LeastLoaded,
    "p2c": PowerOfTwoChoices,
}


def make_policy(name: str, seed: int = 0) -> PlacementPolicy:
    """Policy by name; ``p2c`` takes the seed, the others ignore it."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise LoadError(
            f"unknown placement policy {name!r}; "
            f"expected one of {sorted(POLICIES)}"
        ) from None
    return cls(seed) if cls is PowerOfTwoChoices else cls()
