"""Recovery orchestration: explicit per-session policies over faults.

Section 2.4's promise — "migrate both computation and visualization
within a session without any disturbance ... on the part of the
participating clients" — only means something if somebody *drives* the
migration when a fault hits.  The :class:`RecoveryOrchestrator` is that
somebody: it subscribes to a :class:`~repro.chaos.inject.FaultInjector`
and maps each fault onto one of four per-session actions:

* **retry** — cancel the stranded session and requeue its spec through
  the admission controller (recovery-priority, bound-exempt), so it
  relaunches from scratch on a live site.  The full-site-outage answer:
  when the compute host died, there is nothing left to migrate.
* **migrate** — move the session's steering/viz service instances out of
  a crashed container into a live site's container via
  :func:`repro.ogsa.migration.migrate_service` and rebind the resolver;
  clients re-resolve the same GSH on their next failed op and steering
  resumes mid-session.  The container-crash answer.
* **degrade** — tell the session to shed its remaining steering ops and
  wind down cleanly (limp-mode links are survivable; hammering a slow
  path with more ops is not).
* **abandon** — cancel and give up (the policy of last resort, and the
  explicit budget cap on retry storms).

Broker and registry faults recover at the *fabric* level: vbroker crash
=> broker-pool failover of its sessions; shard loss => republish every
live session's handles from the containers (the source of truth) through
a surviving front-end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.chaos.faults import Fault, RegistryShardLoss, VBrokerCrash
from repro.errors import ChaosError, OgsaError, ReproError, VisitError
from repro.ogsa.migration import migrate_service
from repro.util.stats import RunningStats

RETRY, MIGRATE, DEGRADE, ABANDON = "retry", "migrate", "degrade", "abandon"
_ACTIONS = (RETRY, MIGRATE, DEGRADE, ABANDON)
#: the fault kinds a policy maps, each by its field (the kind's name)
_POLICED = ("site_outage", "container_crash", "slow_node", "firewall_lockdown")


@dataclass(frozen=True)
class RecoveryPolicy:
    """Which action each fault class maps to, plus the retry budget."""

    site_outage: str = RETRY
    container_crash: str = MIGRATE
    slow_node: str = DEGRADE
    firewall_lockdown: str = DEGRADE
    max_retries: int = 2

    def __post_init__(self) -> None:
        for name in _POLICED:
            if getattr(self, name) not in _ACTIONS:
                raise ChaosError(f"policy {name} must be one of {_ACTIONS}")
        if self.site_outage == MIGRATE:
            raise ChaosError(
                "a full site outage kills the compute host; there is "
                "nothing to migrate — use retry or abandon"
            )
        if self.max_retries < 0:
            raise ChaosError("max_retries must be >= 0")

    def action_for(self, fault: Fault) -> Optional[str]:
        name = fault.kind.replace("-", "_")
        # broker/registry/link faults recover at fabric level
        return getattr(self, name) if name in _POLICED else None


def retry_name(name: str, attempt: int) -> str:
    """The attempt-th relaunch of a session (unique per fleet rules)."""
    return f"{name}~r{attempt}"


def root_name(name: str) -> str:
    return name.split("~r", 1)[0]


class RecoveryOrchestrator:
    """Wires fault notifications to recovery actions and keeps score.

    Acts through the injector's own admission controller and broker
    pool, so recovery and the faults it answers see one fabric."""

    def __init__(
        self,
        injector,
        policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.injector = injector
        self.driver = injector.driver
        self.env = injector.env
        self.controller = injector.controller
        self.pool = injector.pool
        self.policy = policy or RecoveryPolicy()
        injector.on_fault.append(self._on_fault)
        self.driver.session_observers.append(self._on_session)
        #: (virtual time, fault kind, action, session) audit trail
        self.events: list[tuple[float, str, str, str]] = []
        #: retry session name -> (original name, fault time)
        self._pending_retry: dict[str, tuple[str, float]] = {}
        #: original name -> fault time, for migrated sessions in flight
        self._pending_migrate: dict[str, float] = {}
        self._retry_counts: dict[str, int] = {}
        self.recovery_latency = RunningStats()
        self.impacted = 0
        self.recovered_retry = 0
        self.recovered_migrate = 0
        self.failed_retries = 0
        self.degraded = 0
        self.abandoned = 0
        self.broker_failovers = 0
        self.registry_rebuilds = 0
        self.unplaced = 0
        if self.pool is not None:
            # Mirror the fleet lifecycle onto broker occupancy so vbroker
            # faults have real sessions to strand.
            self.driver.session_observers.append(self._track_brokers)

    # -- fault reactions ---------------------------------------------------

    def _on_fault(self, fault: Fault, phase: str) -> None:
        if phase != "apply":
            return
        if fault.target == "broker":
            self._fail_over_broker(fault)
            return
        if fault.target == "shard":
            self._rebuild_registry(fault)
            return
        action = self.policy.action_for(fault)
        site = self.injector.site_of(fault)
        if action is None or site is None:
            return
        names = self.driver.sessions_at(site)
        if not names:
            return
        if action == MIGRATE:
            self._migrate_sessions(fault, site, names)
            return
        for name in names:
            self.impacted += 1
            if action == RETRY:
                self._retry(fault.kind, name, self.env.now)
            elif action == DEGRADE:
                self.driver.degrade_session(name)
                self.degraded += 1
                self.events.append((self.env.now, fault.kind, DEGRADE, name))
            else:  # abandon
                self._abandon(fault.kind, name)

    # -- the four actions --------------------------------------------------

    def _retry(self, kind: str, name: str, fault_t: float, live: bool = True) -> None:
        """Requeue ``name`` under its next retry name, within the retry
        budget of its root; past the budget, abandon it.  A ``live``
        session is cancelled first; an escalated one has already failed.
        Recovery latency runs from ``fault_t``."""
        root = root_name(name)
        attempt = self._retry_counts.get(root, 0) + 1
        if self.controller is None or attempt > self.policy.max_retries:
            self._abandon(kind, name, live)
            return
        self._retry_counts[root] = attempt
        spec = self.driver.spec_of(name)
        if live:
            self.driver.cancel_session(name, f"{kind}; retrying elsewhere")
        retried = replace(spec, name=retry_name(root, attempt))
        self.controller.requeue(retried)
        self._pending_retry[retried.name] = (name, fault_t)
        self.events.append((self.env.now, kind, RETRY, name))

    def _abandon(self, kind: str, name: str, live: bool = True) -> None:
        if live:
            self.driver.cancel_session(name, f"{kind}; abandoned")
        self.abandoned += 1
        self.events.append((self.env.now, kind, ABANDON, name))

    def _migrate_sessions(self, fault: Fault, site_index: int, names: list[str]) -> None:
        source = self.driver.sites[site_index].container
        target_site = self._pick_target_site(site_index)
        for name in names:
            self.impacted += 1
            if target_site is None:
                # Nowhere to go: fall back to retry (or abandon inside).
                self._retry(fault.kind, name, self.env.now)
                continue
            target = self.driver.sites[target_site].container
            moved = 0
            for sid in (f"steer-{name}", f"viz-{name}"):
                if sid not in source.deployed():
                    continue  # session died before deploying
                try:
                    migrate_service(sid, source, target, self.driver.resolver)
                    moved += 1
                except (OgsaError, ReproError):
                    break
            if moved:
                self._pending_migrate[name] = self.env.now
                self.events.append((self.env.now, fault.kind, MIGRATE, name))
            else:
                self._retry(fault.kind, name, self.env.now)

    def _pick_target_site(self, exclude: int) -> Optional[int]:
        """The live site with the most headroom (deterministic tie-break:
        lowest index).  Uses the ledger when one exists, else any other
        site whose container is up."""
        ledger = self.injector.ledger
        candidates = []
        for site in self.driver.sites:
            if site.index == exclude or site.container.dead:
                continue
            if ledger is not None and site.index in ledger.sites():
                if ledger.is_failed(site.index) or ledger.is_drained(site.index):
                    continue
                candidates.append((-ledger.free(site.index), site.index))
            else:
                candidates.append((0, site.index))
        if not candidates:
            return None
        return min(candidates)[1]

    # -- fabric-level recovery ---------------------------------------------

    def _fail_over_broker(self, fault: VBrokerCrash) -> None:
        if self.pool is None:
            return
        for session in self.pool.sessions_on(fault.broker):
            try:
                self.pool.replace(session)
                self.broker_failovers += 1
                self.events.append((self.env.now, fault.kind, "failover", session))
            except VisitError:
                self.unplaced += 1
                self.events.append((self.env.now, fault.kind, "unplaced", session))

    def _rebuild_registry(self, fault: RegistryShardLoss) -> None:
        """Republish every live container's services — the containers are
        the source of truth; the registry is a cache over them."""
        restored = self.rebuild_registry()
        self.registry_rebuilds += 1
        self.events.append((self.env.now, fault.kind, "rebuild", f"{restored} entries"))

    def rebuild_registry(self) -> int:
        front = next(
            (s.registry for s in self.driver.sites if not s.container.dead),
            None,
        )
        if front is None:
            return 0
        # The canonical GSH of a migrated service keeps its *source*
        # authority (the whole point of the handle indirection), so
        # prefer the resolver's binding over the hosting container's
        # authority when reconstructing handles.
        canonical = {
            h.service_id: str(h) for h in self.driver.resolver.handles()
        }
        restored = 0
        for site in self.driver.sites:
            container = site.container
            if container.dead:
                continue
            for sid in container.deployed():
                meta = self._metadata_for(sid)
                if meta is None:
                    continue
                handle = canonical.get(sid, f"gsh://{container.authority}/{sid}")
                try:
                    # An entry that survived on another shard keeps its
                    # richer metadata (the job id the orchestrator
                    # published); republish is a refresh, not a dup.
                    meta = front.lookup(handle)
                except OgsaError:
                    pass
                front.publish(handle, meta)
                restored += 1
        return restored

    @staticmethod
    def _metadata_for(service_id: str) -> Optional[dict]:
        for prefix, kind in (("steer-", "steering"), ("viz-", "viz-steering")):
            if service_id.startswith(prefix):
                return {
                    "type": kind,
                    "application": service_id[len(prefix):],
                }
        return None  # registry front-ends and other infrastructure

    # -- lifecycle feedback ------------------------------------------------

    def _on_session(self, kind: str, name: str, site: int) -> None:
        if kind == "complete":
            if name in self._pending_retry:
                _orig, fault_t = self._pending_retry.pop(name)
                self.recovered_retry += 1
                self.recovery_latency.add(self.env.now - fault_t)
            if name in self._pending_migrate:
                fault_t = self._pending_migrate.pop(name)
                self.recovered_migrate += 1
                self.recovery_latency.add(self.env.now - fault_t)
        elif kind == "cancel":
            # A second fault cancelled a session we were already
            # recovering; whichever policy issued the cancel owns the
            # follow-up (retry spawns its own pending entry), so just
            # drop the stale expectations.
            self._pending_retry.pop(name, None)
            self._pending_migrate.pop(name, None)
        elif kind == "fail":
            if name in self._pending_retry:
                self._pending_retry.pop(name)
                self.failed_retries += 1
            if name in self._pending_migrate:
                # The session died despite the migration (it was mid-find
                # or mid-bind when the container crashed, say): escalate
                # to retry, keeping the original fault time so recovery
                # latency measures fault-to-recovered.
                fault_t = self._pending_migrate.pop(name)
                self._retry("escalation", name, fault_t, live=False)

    def _track_brokers(self, kind: str, name: str, site: int) -> None:
        if kind == "start":
            try:
                self.pool.place(name)
            except VisitError:
                self.unplaced += 1
        elif kind in ("complete", "fail", "cancel"):
            self.pool.release(name)

    # -- the verdict -------------------------------------------------------

    @property
    def recovered(self) -> int:
        return self.recovered_retry + self.recovered_migrate

    @property
    def recovery_rate(self) -> float:
        """Recovered-or-degraded fraction of fault-impacted sessions."""
        if self.impacted == 0:
            return 1.0
        return (self.recovered + self.degraded) / self.impacted

    def summary(self) -> dict:
        stats = self.recovery_latency
        return {
            "impacted": self.impacted,
            "recovered": self.recovered,
            "recovered_via": {
                "retry": self.recovered_retry,
                "migrate": self.recovered_migrate,
            },
            "degraded": self.degraded,
            "abandoned": self.abandoned,
            "failed_retries": self.failed_retries,
            "recovery_rate": self.recovery_rate,
            "recovery_latency_s": {
                "n": stats.n,
                "mean": stats.mean if stats.n else None,
                "max": stats.max if stats.n else None,
            },
            "broker_failovers": self.broker_failovers,
            "registry_rebuilds": self.registry_rebuilds,
            "unplaced": self.unplaced,
        }
