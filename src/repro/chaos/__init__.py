"""repro.chaos: seeded fault injection, recovery, invariant checking.

The paper's central claim is that a trans-Atlantic collaborative steering
session survives hostile realities.  :mod:`repro.fleet` and
:mod:`repro.load` scaled the happy path; this package makes **failure a
first-class, seeded, replayable scenario dimension** and proves the
recovery machinery upholds its conservation laws under it:

* :mod:`repro.chaos.faults` — the fault taxonomy (link degradation,
  partitions, site outages, container/vbroker crashes, registry-shard
  loss, firewall lockdown, limp mode) and the seeded
  :class:`FaultSchedule` DSL compiled into DES events;
* :mod:`repro.chaos.inject` — the :class:`FaultInjector` hooks that make
  scheduled faults bite a running open-loop fleet;
* :mod:`repro.chaos.recovery` — the :class:`RecoveryOrchestrator` wiring
  service migration, broker-pool failover and admission-controller
  requeue into explicit per-session policies (retry / migrate / degrade
  / abandon);
* :mod:`repro.chaos.invariants` — the :class:`InvariantMonitor` checking
  conservation laws continuously (no session lost or double-placed,
  ledger balance, one shard per handle, handles resolve, telemetry
  merges lossless).

:class:`ChaosHarness` wires the last three in order and owns the broker
pool: only vbroker crashes and broker failover use one, so a world that
runs no harness builds none.

The quickest way in::

    driver = FleetDriver(n_sites=3, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=16)
    world = ChaosHarness(driver, ctl)
    world.install(FaultSchedule([SiteOutage(at=5.0, site=0)]))
    report = ctl.run(PoissonArrivals(rate=1.0, horizon=20.0, seed=7))
    world.monitor.final_check(report)
    world.monitor.assert_ok()
"""

from repro.chaos.faults import (
    FAULT_KINDS,
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
from repro.chaos.inject import FaultInjector
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.recovery import (
    RecoveryOrchestrator,
    RecoveryPolicy,
    retry_name,
    root_name,
)


class ChaosHarness:
    """Injector + recovery + monitor, wired in the right order.

    Order matters: the monitor must subscribe before recovery so its
    mirrors see every lifecycle event, and recovery must see faults only
    after the injector applied them; the pool and injector are attached
    to ``driver.obs`` last, so its fault hook runs after recovery's.
    This little bundle exists so every bench/test stands up an identical,
    correctly-ordered world.
    """

    def __init__(
        self, driver, controller=None, pool=None, policy=None, monitor_interval: float = 1.0
    ) -> None:
        self.driver = driver
        self.controller = controller
        self.monitor = InvariantMonitor(driver, controller=controller, interval=monitor_interval)
        self.injector = FaultInjector(driver, controller=controller, pool=pool)
        self.recovery = RecoveryOrchestrator(self.injector, policy=policy)
        if pool is not None:
            driver.obs.attach_pool(pool)
        driver.obs.attach_injector(self.injector)

    def install(self, schedule: FaultSchedule) -> list:
        return self.injector.install(schedule)

    def verdict(self, report=None) -> dict:
        """Final check + combined chaos scorecard for benches."""
        self.monitor.final_check(report)
        return {
            "invariant_violations": len(self.monitor.violations),
            "violations": list(self.monitor.violations),
            "sweeps": self.monitor.sweeps,
            "faults_applied": len(self.injector.applied()),
            "recovery": self.recovery.summary(),
        }


__all__ = [
    "Fault",
    "FaultSchedule",
    "FAULT_KINDS",
    "LinkDegrade",
    "Partition",
    "SiteOutage",
    "ContainerCrash",
    "VBrokerCrash",
    "RegistryShardLoss",
    "FirewallLockdown",
    "SlowNode",
    "FaultInjector",
    "RecoveryOrchestrator",
    "RecoveryPolicy",
    "retry_name",
    "root_name",
    "InvariantMonitor",
    "ChaosHarness",
]
