"""The FaultInjector: hooks that make scheduled faults actually bite.

One injector per run, bound to a :class:`~repro.fleet.driver.FleetDriver`
and (optionally) the admission controller's
:class:`~repro.load.capacity.CapacityLedger` and a
:class:`~repro.fleet.brokerpool.BrokerPool`.  ``apply(fault)`` mutates the
live fabric — network partitions, listener shutdowns, capacity marks —
and ``revert(fault)`` undoes exactly what ``apply`` stashed, so transient
fault windows leave no residue.

The injector is mechanism only.  *Policy* — what to do about the sessions
a fault strands — lives in
:class:`~repro.chaos.recovery.RecoveryOrchestrator`, which subscribes to
``on_fault`` and reacts after the fault has taken effect (recovery sees
the world post-fault, exactly like a real operator).
"""

from __future__ import annotations

from typing import Callable

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
        #: per-fault undo state, keyed by the fault object's identity
        self._undo: dict[int, dict] = {}
        #: refcounts so overlapping faults on one target compose: the
        #: last revert standing is the one that actually heals
        self._isolation: dict[str, int] = {}
        self._site_failures: dict[int, int] = {}
        self._lockdowns: dict[str, int] = {}
        #: sites whose container is down due to an active ContainerCrash
        #: (a concurrent SiteOutage revert must not re-seat its listener)
        self._crashed_containers: set[int] = set()
        #: broker indices down due to an active VBrokerCrash, for the
        #: same reason: an outage revert must not resurrect them
        self._crashed_brokers: set[int] = set()

    # -- schedule entry points ---------------------------------------------

    def install(self, schedule: FaultSchedule) -> list:
        """Compile a schedule onto this injector (delegates back)."""
        return schedule.install(self)

    def validate(self, schedule: FaultSchedule) -> None:
        """Fail fast on faults this fabric cannot host."""
        for fault in schedule:
            if isinstance(fault, (SiteOutage, ContainerCrash, SlowNode)):
                if fault.site >= len(self.driver.sites):
                    raise ChaosError(
                        f"{fault.describe()}: fabric has only " f"{len(self.driver.sites)} sites"
                    )
            elif isinstance(fault, VBrokerCrash):
                if self.pool is None:
                    raise ChaosError(f"{fault.describe()}: no broker pool attached")
                if fault.broker >= len(self.pool.brokers):
                    raise ChaosError(
                        f"{fault.describe()}: pool has only " f"{len(self.pool.brokers)} brokers"
                    )
            elif isinstance(fault, RegistryShardLoss):
                if fault.shard >= len(self.driver.shards):
                    raise ChaosError(
                        f"{fault.describe()}: only " f"{len(self.driver.shards)} shards"
                    )
            elif isinstance(fault, (LinkDegrade, Partition)):
                for name in (fault.a, fault.b):
                    if name not in self.net.hosts:
                        raise ChaosError(f"{fault.describe()}: unknown host {name!r}")
            elif isinstance(fault, FirewallLockdown):
                if fault.host not in self.net.hosts:
                    raise ChaosError(f"{fault.describe()}: unknown host {fault.host!r}")

    # -- the two verbs -----------------------------------------------------

    def apply(self, fault: Fault) -> None:
        self.log.append((self.env.now, "apply", fault.describe()))
        handler = self._HANDLERS[type(fault)]
        handler(self, fault, apply=True)
        for cb in self.on_fault:
            cb(fault, "apply")

    def revert(self, fault: Fault) -> None:
        self.log.append((self.env.now, "revert", fault.describe()))
        handler = self._HANDLERS[type(fault)]
        handler(self, fault, apply=False)
        for cb in self.on_fault:
            cb(fault, "revert")
        if self.controller is not None:
            # Healed capacity may unblock the head of the queue right now.
            self.controller.kick()

    # -- handlers ----------------------------------------------------------

    def _links_between(self, a: str, b: str):
        return [self.net.link(a, b), self.net.link(b, a)]

    def _link_degrade(self, fault: LinkDegrade, apply: bool) -> None:
        for link in self._links_between(fault.a, fault.b):
            if apply:
                link.degrade(fault.latency_factor, fault.bandwidth_factor)
            else:
                link.restore()

    def _partition(self, fault: Partition, apply: bool) -> None:
        if apply:
            self.net.partition(fault.a, fault.b)
        else:
            self.net.heal(fault.a, fault.b)

    def _isolate(self, name: str) -> None:
        self._isolation[name] = self._isolation.get(name, 0) + 1
        self.net.isolate(name)

    def _rejoin(self, name: str) -> None:
        count = self._isolation.get(name, 0) - 1
        if count <= 0:
            self._isolation.pop(name, None)
            self.net.rejoin(name)
        else:
            self._isolation[name] = count

    def _fail_site(self, index: int) -> None:
        self._site_failures[index] = self._site_failures.get(index, 0) + 1
        if self.ledger is not None and index in self.ledger.sites():
            if not self.ledger.is_failed(index):
                self.ledger.fail(index)

    def _repair_site(self, index: int) -> None:
        count = self._site_failures.get(index, 0) - 1
        if count <= 0:
            self._site_failures.pop(index, None)
            if self.ledger is not None and index in self.ledger.sites():
                if self.ledger.is_failed(index):
                    self.ledger.repair(index)
        else:
            self._site_failures[index] = count

    def _site_outage(self, fault: SiteOutage, apply: bool) -> None:
        site = self.driver.sites[fault.site]
        host_names = (site.hpc_name, site.svc_name)
        if apply:
            stash: dict = {"listeners": {}}
            for name in host_names:
                host = self.net.host(name)
                stash["listeners"][name] = dict(host.listeners)
                host.listeners.clear()
                self._isolate(name)
            self._undo[id(fault)] = stash
            self._fail_site(fault.site)
        else:
            stash = self._undo.pop(id(fault), {"listeners": {}})
            claimed = self._claimed_down_ports()
            for name in host_names:
                host = self.net.host(name)
                # Re-seat the stashed listeners: their accept loops were
                # parked on backlog mailboxes the whole time, so service
                # resumes without rebuilding the middleware stack.  A
                # port claimed by a still-active container or vbroker
                # crash stays down until *that* fault reverts.
                for port, listener in stash["listeners"].get(name, {}).items():
                    if (name, port) in claimed:
                        continue
                    host.listeners.setdefault(port, listener)
                self._rejoin(name)
            self._repair_site(fault.site)

    def _claimed_down_ports(self) -> set[tuple[str, int]]:
        """(host, port) pairs another active crash fault holds down."""
        claimed = {
            (self.driver.sites[i].svc_name, self.driver.sites[i].container.port)
            for i in self._crashed_containers
        }
        if self.pool is not None:
            claimed |= {
                (self.pool.brokers[i].host.name, self.pool.brokers[i].port)
                for i in self._crashed_brokers
            }
        return claimed

    def _container_crash(self, fault: ContainerCrash, apply: bool) -> None:
        site = self.driver.sites[fault.site]
        if apply:
            site.container.stop()
            self._crashed_containers.add(fault.site)
            self._fail_site(fault.site)
        else:
            self._crashed_containers.discard(fault.site)
            site.container.restart()
            self._repair_site(fault.site)

    def _vbroker_crash(self, fault: VBrokerCrash, apply: bool) -> None:
        broker = self.pool.brokers[fault.broker]
        if apply:
            # Unconditional: even if an outage already unseated the
            # listener, the downstream connections must still be severed.
            broker.stop()
            self._crashed_brokers.add(fault.broker)
        else:
            self._crashed_brokers.discard(fault.broker)
            if not broker.alive:
                broker.start()

    def _shard_loss(self, fault: RegistryShardLoss, apply: bool) -> None:
        if not apply:  # pragma: no cover - schedule forbids durations
            return
        lost = self.driver.shards[fault.shard].clear()
        self.log.append((
            self.env.now, "note",
            f"shard {fault.shard} lost {lost} entries",
        ))

    def _lockdown(self, fault: FirewallLockdown, apply: bool) -> None:
        firewall = self.net.host(fault.host).firewall
        site = self.driver.site_of_host(fault.host)
        if apply:
            self._lockdowns[fault.host] = (self._lockdowns.get(fault.host, 0) + 1)
            firewall.lockdown()
            # A locked-down site cannot launch new sessions (the gateway
            # port is shut); take it out of placement for the window.
            if site is not None:
                self._fail_site(site)
        else:
            count = self._lockdowns.get(fault.host, 0) - 1
            if count <= 0:
                self._lockdowns.pop(fault.host, None)
                firewall.lift_lockdown()
            else:
                self._lockdowns[fault.host] = count
            if site is not None:
                self._repair_site(site)

    def _slow_node(self, fault: SlowNode, apply: bool) -> None:
        site = self.driver.sites[fault.site]
        for name in (site.hpc_name, site.svc_name):
            for link in self.net.links_of(name):
                if apply:
                    link.degrade(fault.factor, 1.0 / fault.factor)
                else:
                    link.restore()

    _HANDLERS = {
        LinkDegrade: _link_degrade,
        Partition: _partition,
        SiteOutage: _site_outage,
        ContainerCrash: _container_crash,
        VBrokerCrash: _vbroker_crash,
        RegistryShardLoss: _shard_loss,
        FirewallLockdown: _lockdown,
        SlowNode: _slow_node,
    }

    # -- introspection -----------------------------------------------------

    def applied(self) -> list[str]:
        return [desc for _, phase, desc in self.log if phase == "apply"]
