"""Per-site capacity models and the in-flight session ledger.

A site can serve only so many concurrent sessions, and the binding
constraint differs by layer: the gateway's batch queue (TSI slots behind
the single open port), the OGSI::Lite container (every session deploys
two services and takes steering traffic), and the vbroker fan-out (each
collaborative session multiplexes to several visualizations).  A
:class:`SiteCapacity` records all three and the effective slot count is
their minimum; the :class:`CapacityLedger` tracks in-flight sessions
against those slots and is the single source of truth the admission
controller, placement policies and autoscaler all consult.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LoadError


@dataclass(frozen=True)
class SiteCapacity:
    """What bounds one site's concurrent sessions, layer by layer."""

    gateway_slots: int
    container_slots: int
    vbroker_slots: int

    def __post_init__(self) -> None:
        for name in ("gateway_slots", "container_slots", "vbroker_slots"):
            if getattr(self, name) < 1:
                raise LoadError(f"{name} must be >= 1")

    @property
    def slots(self) -> int:
        """The effective concurrency bound: the tightest layer wins."""
        return min(self.gateway_slots, self.container_slots, self.vbroker_slots)


def capacity_of(site, container_slots: int = 8, vbroker_slots: int = 8) -> SiteCapacity:
    """Capacity model for a :class:`~repro.fleet.driver.FleetSite`.

    The gateway bound is read off the fabric itself (the TSI batch
    queue); the container and vbroker bounds are policy knobs — the
    simulated container and broker do not enforce a hard cap, so these
    encode how far an operator is willing to load them.
    """
    return SiteCapacity(
        gateway_slots=int(site.tsi.queue.capacity),
        container_slots=container_slots,
        vbroker_slots=vbroker_slots,
    )


class CapacityLedger:
    """In-flight sessions per site, with drain/reopen for elasticity.

    Draining a site removes it from placement without touching sessions
    already running there — the autoscaler's scale-down path.  All
    methods raise :class:`~repro.errors.LoadError` on misuse (acquiring
    a full or drained site, releasing below zero) because a bookkeeping
    slip here silently corrupts every admission decision downstream.
    """

    def __init__(self) -> None:
        self._slots: dict[int, int] = {}
        self._inflight: dict[int, int] = {}
        self._drained: set[int] = set()
        #: sites lost to a fault: unplaceable like drained, but *not* an
        #: operator decision — the chaos injector flips these, and
        #: sessions that die there still release their slots cleanly
        self._failed: set[int] = set()

    # -- membership --------------------------------------------------------

    def register_site(self, index: int, capacity: "SiteCapacity | int") -> None:
        if index in self._slots:
            raise LoadError(f"site {index} already registered in the ledger")
        slots = capacity if isinstance(capacity, int) else capacity.slots
        if slots < 1:
            raise LoadError(f"site {index} needs >= 1 slot, got {slots}")
        self._slots[index] = slots
        self._inflight[index] = 0

    def drain(self, index: int) -> None:
        """Stop placing on a site; running sessions finish undisturbed."""
        self._check(index)
        self._drained.add(index)

    def reopen(self, index: int) -> None:
        self._check(index)
        self._drained.discard(index)

    def is_drained(self, index: int) -> bool:
        self._check(index)
        return index in self._drained

    def fail(self, index: int) -> None:
        """A fault took the site down: nothing places there until
        :meth:`repair`.  In-flight counts are untouched — the admission
        controller's release path still balances its acquires even when
        the sessions holding the slots died with the site."""
        self._check(index)
        self._failed.add(index)

    def repair(self, index: int) -> None:
        self._check(index)
        self._failed.discard(index)

    def is_failed(self, index: int) -> bool:
        self._check(index)
        return index in self._failed

    # -- accounting --------------------------------------------------------

    def _check(self, index: int) -> None:
        if index not in self._slots:
            raise LoadError(f"site {index} is not registered in the ledger")

    def acquire(self, index: int) -> None:
        self._check(index)
        if index in self._drained:
            raise LoadError(f"site {index} is drained; cannot place there")
        if index in self._failed:
            raise LoadError(f"site {index} is failed; cannot place there")
        if self._inflight[index] >= self._slots[index]:
            raise LoadError(
                f"site {index} is full " f"({self._inflight[index]}/{self._slots[index]})"
            )
        self._inflight[index] += 1

    def release(self, index: int) -> None:
        self._check(index)
        if self._inflight[index] == 0:
            raise LoadError(f"site {index}: release without acquire")
        self._inflight[index] -= 1

    # -- queries -----------------------------------------------------------

    def inflight(self, index: int) -> int:
        self._check(index)
        return self._inflight[index]

    def free(self, index: int) -> int:
        """Open slots at a site; drained and failed sites have none."""
        self._check(index)
        if index in self._drained or index in self._failed:
            return 0
        return self._slots[index] - self._inflight[index]

    def sites(self) -> list[int]:
        return sorted(self._slots)

    def active_sites(self) -> list[int]:
        return [i for i in self.sites() if i not in self._drained and i not in self._failed]

    def sites_with_room(self) -> list[int]:
        return [i for i in self.sites() if self.free(i) > 0]

    @property
    def total_inflight(self) -> int:
        return sum(self._inflight.values())

    def snapshot(self) -> dict[int, tuple[int, int, bool]]:
        """site -> (inflight, slots, unplaceable) for reports and
        debugging; the flag covers both drained and failed sites."""
        return {
            i: (self._inflight[i], self._slots[i],
                i in self._drained or i in self._failed)
            for i in self.sites()
        }

    @classmethod
    def for_driver(cls, driver, container_slots: int = 8) -> "CapacityLedger":
        """A ledger covering every site the driver currently has."""
        ledger = cls()
        for site in driver.sites:
            ledger.register_site(site.index, capacity_of(site, container_slots=container_slots))
        return ledger
