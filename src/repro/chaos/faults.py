"""The fault taxonomy and the seeded, replayable FaultSchedule DSL.

The paper's sessions survived hostile realities — firewalled HPC centres,
flaky trans-Atlantic links, mid-session service moves — but the testbed
so far only met them as fixed topology.  This module makes failure a
*scenario dimension*: a :class:`FaultSchedule` is a declarative, seeded
list of faults over virtual time, which
:meth:`FaultInjector.install <repro.chaos.inject.FaultInjector.install>`
compiles into DES processes while an open-loop fleet is running.  Same
schedule, same seed, same arrivals => byte-for-byte the same run, so
every fault scenario is also a regression test.

Taxonomy (one frozen dataclass per kind):

========================  ===================================================
:class:`LinkDegrade`      WAN weather on one path: latency x N, bandwidth / N
                          (overlapping degradations of a link: the worst
                          active factors hold; the last revert restores)
:class:`Partition`        a host pair goes dark (messages lost, connects fail)
:class:`SiteOutage`       a whole site dies: HPC + service hosts isolated,
                          every listener down, capacity marked failed
:class:`ContainerCrash`   the OGSI::Lite container crashes; hosts stay up —
                          the migration-recovery case
:class:`VBrokerCrash`     a collaborative multiplexer dies; its sessions
                          need broker-pool failover
:class:`RegistryShardLoss`  one registry shard loses its entries (no revert:
                          data loss is permanent until recovery republishes)
:class:`FirewallLockdown` a site's firewall flips to deny-all mid-session
:class:`SlowNode`         limp mode: every link touching the site degrades
                          (composes with LinkDegrade by the same rule)
========================  ===================================================

Faults with a ``duration`` auto-revert (the injector undoes them); with
``duration=None`` they are permanent for the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator, Optional, Sequence

from repro.errors import ChaosError
from repro.wire.fields import check_fields

#: what a fault kind hits -> the fields that name one member of it
TARGET_FIELDS: dict[str, tuple[str, ...]] = {
    "site": ("site",),
    "broker": ("broker",),
    "shard": ("shard",),
    "host": ("host",),
    "host pair": ("a", "b"),
}


@dataclass(frozen=True, kw_only=True)
class Fault:
    """Base: *when* it fires, for how long it holds, and what it hits.

    Each kind names its ``target`` once (a :data:`TARGET_FIELDS` key);
    the field check below, :meth:`FaultInjector.validate
    <repro.chaos.inject.FaultInjector.validate>`, :meth:`FaultSchedule.random`
    and the injector's site lookup all read that declaration.
    """

    kind: ClassVar[str] = "fault"
    target: ClassVar[str]
    #: a permanent kind takes no duration (nothing of it comes back)
    permanent: ClassVar[bool] = False

    at: float
    #: fault window; None = permanent (never reverted)
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        # Faults arrive from campaign specs as JSON: every field is
        # type-checked here, not where the fabric would trip over it.
        check_fields(self, ChaosError, self.kind)
        members = self.members()
        for value in members:
            if value == "" or isinstance(value, int) and value < 0:
                raise ChaosError(f"{self.kind}: {value!r} names no {self.target}")
        if len(members) == 2 and len(set(members)) == 1:
            raise ChaosError(f"{self.kind}: a host pair needs two different hosts")
        if self.at < 0:
            raise ChaosError(f"{self.kind}: fault time must be >= 0")
        if self.duration is not None and self.duration <= 0:
            raise ChaosError(f"{self.kind}: duration must be > 0 or None (permanent)")
        if self.permanent and self.duration is not None:
            raise ChaosError(f"{self.kind}: a permanent fault takes no duration")

    def members(self) -> tuple:
        """The target's naming field values: one index or host, or a pair's two hosts."""
        return tuple(getattr(self, name) for name in TARGET_FIELDS[self.target])

    @classmethod
    def draw_severity(cls, rng: random.Random) -> dict:
        """Severity fields a random schedule draws after the target."""
        return {}

    def describe(self) -> str:
        params = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name not in ("at", "duration")
        )
        window = "permanent" if self.duration is None else f"{self.duration:g}s"
        return f"{self.kind}(t={self.at:g}, {window}" + (f", {params})" if params else ")")


@dataclass(frozen=True, kw_only=True)
class LinkDegrade(Fault):
    kind: ClassVar[str] = "link-degrade"
    target: ClassVar[str] = "host pair"

    a: str
    b: str
    latency_factor: float = 10.0
    bandwidth_factor: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.latency_factor < 1.0 or not 0.0 < self.bandwidth_factor <= 1.0:
            raise ChaosError(
                f"{self.kind}: need latency_factor >= 1 and " "bandwidth_factor in (0, 1]"
            )

    @classmethod
    def draw_severity(cls, rng: random.Random) -> dict:
        return {
            "latency_factor": float(rng.randint(2, 20)),
            "bandwidth_factor": rng.choice((0.5, 0.25, 0.1)),
        }


@dataclass(frozen=True, kw_only=True)
class Partition(Fault):
    kind: ClassVar[str] = "partition"
    target: ClassVar[str] = "host pair"

    a: str
    b: str


@dataclass(frozen=True, kw_only=True)
class SiteOutage(Fault):
    kind: ClassVar[str] = "site-outage"
    target: ClassVar[str] = "site"

    site: int


@dataclass(frozen=True, kw_only=True)
class ContainerCrash(Fault):
    kind: ClassVar[str] = "container-crash"
    target: ClassVar[str] = "site"

    site: int


@dataclass(frozen=True, kw_only=True)
class VBrokerCrash(Fault):
    kind: ClassVar[str] = "vbroker-crash"
    target: ClassVar[str] = "broker"

    broker: int


@dataclass(frozen=True, kw_only=True)
class RegistryShardLoss(Fault):
    """Permanent data loss: recovery republishes; a duration would imply
    the entries come back."""

    kind: ClassVar[str] = "registry-shard-loss"
    target: ClassVar[str] = "shard"
    permanent: ClassVar[bool] = True

    shard: int


@dataclass(frozen=True, kw_only=True)
class FirewallLockdown(Fault):
    kind: ClassVar[str] = "firewall-lockdown"
    target: ClassVar[str] = "host"

    host: str


@dataclass(frozen=True, kw_only=True)
class SlowNode(Fault):
    kind: ClassVar[str] = "slow-node"
    target: ClassVar[str] = "site"

    site: int
    factor: float = 8.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ChaosError(f"{self.kind}: limp factor must be > 1")

    @classmethod
    def draw_severity(cls, rng: random.Random) -> dict:
        return {"factor": float(rng.randint(4, 12))}


#: every concrete fault kind, for validation and random generation
FAULT_KINDS: tuple[type, ...] = (
    LinkDegrade, Partition, SiteOutage, ContainerCrash, VBrokerCrash,
    RegistryShardLoss, FirewallLockdown, SlowNode,
)


class FaultSchedule:
    """An ordered, validated set of faults — the replayable scenario unit.

    Iteration order is firing order: by ``at``, ties broken by insertion
    (same-time faults fire in the order they were declared, matching the
    DES kernel's FIFO rule — determinism is load-bearing here too).
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self._faults: list[Fault] = []
        for fault in faults:
            self.add(fault)

    def add(self, fault: Fault) -> "FaultSchedule":
        if not isinstance(fault, Fault) or type(fault) is Fault:
            raise ChaosError(
                f"schedule entries must be concrete Fault instances, " f"got {fault!r}"
            )
        self._faults.append(fault)
        return self

    def __iter__(self) -> Iterator[Fault]:
        decorated = sorted((fault.at, i, fault) for i, fault in enumerate(self._faults))
        return iter(fault for _, _, fault in decorated)

    def __len__(self) -> int:
        return len(self._faults)

    @property
    def horizon(self) -> float:
        """When the last fault window closes (0.0 for an empty schedule)."""
        return max((f.at + (f.duration or 0.0) for f in self._faults), default=0.0)

    def describe(self) -> list[str]:
        return [f.describe() for f in self]

    # -- seeded generation -------------------------------------------------

    @classmethod
    def random(
        cls,
        *,
        seed: int,
        horizon: float,
        n_faults: int = 4,
        sites: int = 2,
        shards: int = 0,
        brokers: int = 0,
        hosts: Sequence[str] = (),
        host_pairs: Sequence[tuple[str, str]] = (),
        kinds: Optional[Sequence[type]] = None,
        window: float = 0.8,
        duration_scale: float = 1.0,
    ) -> "FaultSchedule":
        """A seeded random schedule over the fabric's population.

        Keyword-only: the campaign search layer addresses these
        parameters by name (``faults.random.<param>`` paths), so the
        signature is part of the wire format and positional calls are
        refused.

        Faults land in disjoint time slots across ``(0, window *
        horizon)`` — overlap-free per construction, so apply/revert
        pairs never interleave on the same target and the same seed
        always compiles to the same DES event sequence.  Kinds needing
        a population the caller did not declare (no brokers, no host
        pairs...) are excluded automatically.

        ``window`` and ``duration_scale`` are the continuous severity
        knobs an adaptive search sweeps: shrinking the window packs the
        same faults into less virtual time, and ``duration_scale``
        stretches (or shortens) every outage within its slot — at the
        defaults both leave the drawn schedule untouched, so existing
        seeds stay byte-identical.
        """
        if horizon <= 0:
            raise ChaosError("random schedule needs a positive horizon")
        if n_faults < 1:
            raise ChaosError("random schedule needs >= 1 fault")
        if not 0.0 < window <= 1.0:
            raise ChaosError("random schedule window must be in (0, 1]")
        if duration_scale <= 0:
            raise ChaosError("random schedule duration_scale must be > 0")
        populations = {
            "site": range(sites), "broker": range(brokers), "shard": range(shards),
            "host": list(hosts), "host pair": list(host_pairs),
        }
        rng = random.Random(seed)
        pool = list(kinds) if kinds is not None else list(FAULT_KINDS)
        if not all(kind in FAULT_KINDS for kind in pool):
            raise ChaosError(f"random schedule kinds must be fault classes, got {pool!r}")
        pool = [kind for kind in pool if populations[kind.target]]
        if not pool:
            raise ChaosError("no fault kind is satisfiable with the declared populations")
        schedule = cls()
        slot = window * horizon / n_faults
        for i in range(n_faults):
            kind = rng.choice(pool)
            offset = rng.uniform(0.1, 0.5) * slot
            at = slot * i + offset
            # The whole apply..revert window stays inside this fault's
            # slot, so windows are disjoint by construction; the scale
            # is clamped to the slot remainder for the same reason.
            duration = rng.uniform(0.3, 0.95) * (slot - offset)
            duration = min(duration * duration_scale, slot - offset)
            # choice over range(n) consumes the draw randrange(n) did.
            member = rng.choice(populations[kind.target])
            names = TARGET_FIELDS[kind.target]
            schedule.add(kind(
                at=at, duration=None if kind.permanent else duration,
                **dict(zip(names, member if len(names) > 1 else (member,))),
                **kind.draw_severity(rng),
            ))
        return schedule
