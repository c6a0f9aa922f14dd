"""The FaultInjector: hooks that make scheduled faults actually bite.

One injector per run, bound to a :class:`~repro.fleet.driver.FleetDriver`
and (optionally) the admission controller's
:class:`~repro.load.capacity.CapacityLedger` and a
:class:`~repro.fleet.brokerpool.BrokerPool`.  ``apply(fault)`` takes the
fault's *holds* on named fabric targets — a host's isolation, listeners
or firewall, a host pair's partition, a link, a site's placement, a
container or broker — and ``revert(fault)`` releases them.  A target
changes at its first hold and heals at its last release, so overlapping
faults compose and transient windows leave no residue; a link held by
several degradations runs at the worst active factors.

The injector is mechanism only.  *Policy* — what to do about the sessions
a fault strands — lives in
:class:`~repro.chaos.recovery.RecoveryOrchestrator`, which subscribes to
``on_fault`` and reacts after the fault has taken effect (recovery sees
the world post-fault, exactly like a real operator).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.chaos.faults import (
    ContainerCrash,
    Fault,
    FaultSchedule,
    FirewallLockdown,
    LinkDegrade,
    Partition,
    RegistryShardLoss,
    SiteOutage,
    SlowNode,
    VBrokerCrash,
)
from repro.errors import ChaosError


class FaultInjector:
    """Applies/reverts faults against a live fleet fabric."""

    def __init__(self, driver, controller=None, pool=None) -> None:
        self.driver = driver
        self.env = driver.env
        self.net = driver.net
        self.controller = controller
        self.ledger = controller.ledger if controller is not None else None
        self.pool = pool
        #: subscribers ``cb(fault, phase)`` with phase "apply" | "revert"
        self.on_fault: list[Callable[[Fault, str], None]] = []
        #: (virtual time, phase, fault.describe()) audit trail
        self.log: list[tuple[float, str, str]] = []
        #: the hold table: (hold kind, subject) -> [(fault, value)] in
        #: take order; a target is in the table while any fault holds it
        self._holds: dict[tuple, list[tuple[Fault, object]]] = {}
        #: listeners an outage unseated, per host, until its last release
        self._unseated: dict[str, dict] = {}

    # -- schedule entry points ---------------------------------------------

    def install(self, schedule: FaultSchedule) -> list:
        """Compile a schedule into DES processes; returns them.

        Each fault becomes one process: wait until ``at``, apply; if the
        fault has a duration, wait it out and revert.
        """
        self.validate(schedule)
        return [self.env.process(self._fire(fault)) for fault in schedule]

    def _fire(self, fault: Fault):
        env = self.env
        if fault.at > env.now:
            yield env.timeout(fault.at - env.now)
        self.apply(fault)
        if fault.duration is not None:
            yield env.timeout(fault.duration)
            self.revert(fault)

    def validate(self, schedule: FaultSchedule) -> None:
        """Fail fast on faults this fabric cannot host."""
        populations = {
            "site": range(len(self.driver.sites)),
            "shard": range(len(self.driver.shards)),
            "broker": range(len(self.pool.brokers if self.pool is not None else ())),
            "host": self.net.hosts,
        }
        for fault in schedule:
            noun = "host" if fault.target == "host pair" else fault.target
            if noun == "broker" and self.pool is None:
                raise ChaosError(f"{fault.describe()}: no broker pool attached")
            for member in fault.members():
                if member not in populations[noun]:
                    raise ChaosError(
                        f"{fault.describe()}: unknown {noun} {member!r} "
                        f"(the fabric has only {len(populations[noun])} {noun}s)"
                    )

    def site_of(self, fault: Fault) -> Optional[int]:
        """The site a site- or host-targeted fault hits, if any."""
        if fault.target == "site":
            return fault.site
        if fault.target == "host":
            return self.driver.site_of_host(fault.host)
        return None

    # -- the two verbs -----------------------------------------------------

    def apply(self, fault: Fault) -> None:
        self.log.append((self.env.now, "apply", fault.describe()))
        if fault.target == "shard":  # data loss: an event, not a hold
            lost = self.driver.shards[fault.shard].clear()
            self.log.append((self.env.now, "note", f"shard {fault.shard} lost {lost} entries"))
        for target, value in self._HOLDS[type(fault)](self, fault):
            self._hold(target, self._holds.get(target, []) + [(fault, value)])
        for cb in self.on_fault:
            cb(fault, "apply")

    def revert(self, fault: Fault) -> None:
        self.log.append((self.env.now, "revert", fault.describe()))
        for target, _ in self._HOLDS[type(fault)](self, fault):
            holders = list(self._holds.get(target, []))
            for i, (holder, _) in enumerate(holders):
                if holder is fault:  # a slow node holds no link made after it applied
                    del holders[i]
                    self._hold(target, holders)
                    break
        for cb in self.on_fault:
            cb(fault, "revert")
        if self.controller is not None:
            # Healed capacity may unblock the head of the queue right now.
            self.controller.kick()

    # -- the hold table ------------------------------------------------------

    @staticmethod
    def _level(target: tuple, holders: list) -> object:
        """What the active holds ask of a target: None when nothing holds
        it; a link's worst (latency, bandwidth) factors; else True."""
        if not holders:
            return None
        if target[0] == "link":
            return (max(v[0] for _, v in holders), min(v[1] for _, v in holders))
        return True

    def _hold(self, target: tuple, holders: list) -> None:
        """Record a target's holders; move the fabric only when what they
        ask of it changes: its first hold, its last release, or a link's
        worst factors."""
        before = self._level(target, self._holds.pop(target, []))
        if holders:
            self._holds[target] = holders
        after = self._level(target, holders)
        if after != before:
            kind, subject = target
            self._EFFECTS[kind](self, subject, after)

    def _isolate(self, name: str, level) -> None:
        (self.net.isolate if level else self.net.rejoin)(name)

    def _unseat(self, name: str, level) -> None:
        host = self.net.host(name)
        if level:
            self._unseated[name] = dict(host.listeners)
            host.listeners.clear()
            return
        # Re-seat the unseated listeners: their accept loops were parked
        # on backlog mailboxes the whole time, so service resumes without
        # rebuilding the middleware stack.  A port a still-active
        # container or vbroker crash holds down stays down until *that*
        # fault reverts.
        claimed = {(server.host.name, server.port) for kind, server in self._holds
                   if kind == "crash"}
        for port, listener in self._unseated.pop(name).items():
            if (name, port) not in claimed:
                host.listeners.setdefault(port, listener)

    def _lock(self, name: str, level) -> None:
        firewall = self.net.host(name).firewall
        (firewall.lockdown if level else firewall.lift_lockdown)()

    def _cut(self, pair: tuple[str, str], level) -> None:
        (self.net.partition if level else self.net.heal)(*pair)

    def _slow(self, link, level) -> None:
        if level:
            link.degrade(*level)
        else:
            link.restore()

    def _unplace(self, index: int, level) -> None:
        if self.ledger is None or index not in self.ledger.sites():
            return
        if level and not self.ledger.is_failed(index):
            self.ledger.fail(index)
        elif not level and self.ledger.is_failed(index):
            self.ledger.repair(index)

    def _crash(self, server, level) -> None:
        """An OGSA container or a vbroker.  The stop is unconditional: even
        if an outage already unseated the listener, the established
        connections must still be severed."""
        if level:
            server.stop()
        elif not server.alive:
            server.start()
            unseated = self._unseated.get(server.host.name)
            if unseated is not None:  # its host's listeners are still held down
                unseated[server.port] = server.host.listeners.pop(server.port)

    _EFFECTS = {
        "isolation": _isolate,
        "listeners": _unseat,
        "firewall": _lock,
        "partition": _cut,
        "link": _slow,
        "placement": _unplace,
        "crash": _crash,
    }

    # -- the holds each fault kind takes, in take order --------------------

    def _placement_holds(self, fault: Fault) -> list:
        site = self.site_of(fault)
        return [] if site is None else [(("placement", site), None)]

    def _site_outage(self, fault: SiteOutage) -> list:
        site = self.driver.sites[fault.site]
        return [((kind, name), None) for name in (site.hpc_name, site.svc_name)
                for kind in ("listeners", "isolation")] + self._placement_holds(fault)

    def _container_crash(self, fault: ContainerCrash) -> list:
        crash = (("crash", self.driver.sites[fault.site].container), None)
        return [crash] + self._placement_holds(fault)

    def _lockdown(self, fault: FirewallLockdown) -> list:
        # A locked-down site cannot launch new sessions (the gateway port
        # is shut); take it out of placement for the window.
        return [(("firewall", fault.host), None)] + self._placement_holds(fault)

    def _link_degrade(self, fault: LinkDegrade) -> list:
        factors = (fault.latency_factor, fault.bandwidth_factor)
        return [(("link", self.net.link(src, dst)), factors)
                for src, dst in ((fault.a, fault.b), (fault.b, fault.a))]

    def _slow_node(self, fault: SlowNode) -> list:
        site = self.driver.sites[fault.site]
        links = dict.fromkeys(
            link for name in (site.hpc_name, site.svc_name) for link in self.net.links_of(name)
        )
        return [(("link", link), (fault.factor, 1.0 / fault.factor)) for link in links]

    _HOLDS = {
        LinkDegrade: _link_degrade,
        Partition: lambda self, fault: [(("partition", tuple(sorted(fault.members()))), None)],
        SiteOutage: _site_outage,
        ContainerCrash: _container_crash,
        VBrokerCrash: lambda self, fault: [(("crash", self.pool.brokers[fault.broker]), None)],
        RegistryShardLoss: lambda self, fault: [],
        FirewallLockdown: _lockdown,
        SlowNode: _slow_node,
    }

    # -- introspection -----------------------------------------------------

    def applied(self) -> list[str]:
        return [desc for _, phase, desc in self.log if phase == "apply"]
