"""The InvariantMonitor itself: laws hold on healthy runs, and —
just as important — corrupted state is actually *caught*.  A monitor
that cannot fail proves nothing."""

import pytest

from repro.chaos import ChaosHarness, InvariantMonitor
from repro.errors import ChaosError
from repro.fleet import FleetDriver
from repro.fleet.spec import ScenarioSpec
from repro.load import AdmissionController, TraceArrivals
from repro.util.stats import RunningStats


def _proto(**kw):
    kw.setdefault("duration", 2.0)
    kw.setdefault("cadence", 0.5)
    kw.setdefault("participants", 1)
    kw.setdefault("name", "proto")
    return ScenarioSpec(**kw)


def _ran_world(n_sites=2, arrivals=(0.0, 0.3)):
    driver = FleetDriver(n_sites=n_sites, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=8)
    monitor = InvariantMonitor(driver, controller=ctl)
    ctl.run(
        TraceArrivals(list(arrivals), suite=[_proto()], prefix="m"),
        until=40.0,
    )
    return driver, ctl, monitor


def test_monitor_validates_interval():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    with pytest.raises(ChaosError):
        InvariantMonitor(driver, interval=0.0)


def test_healthy_run_is_silent_and_assert_ok_passes():
    driver, ctl, monitor = _ran_world()
    monitor.final_check(driver.report())
    assert monitor.ok
    monitor.assert_ok()
    assert "OK" in monitor.render()
    assert monitor.sweeps > 5


def test_monitor_catches_a_lost_session():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    monitor = InvariantMonitor(driver)
    driver.admit(_proto(name="doomed"))
    driver.env.run(until=1.0)
    # Corrupt: the session vanishes from the active set with no
    # lifecycle event — exactly what "lost" means.
    driver.active.pop("doomed")
    monitor.sweep()
    assert not monitor.ok
    assert any("no-session-lost" in v for v in monitor.violations)
    with pytest.raises(ChaosError, match="invariant violation"):
        monitor.assert_ok()


def test_monitor_catches_double_start():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    monitor = InvariantMonitor(driver)
    driver._notify_session("start", "ghost", 0)
    driver._notify_session("start", "ghost", 0)
    assert any("single-start" in v for v in monitor.violations)


def test_monitor_catches_finish_without_start():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    monitor = InvariantMonitor(driver)
    driver._notify_session("complete", "phantom", 0)
    assert any("finish-implies-start" in v for v in monitor.violations)


def test_monitor_catches_ledger_imbalance():
    driver, ctl, monitor = _ran_world()
    # Corrupt: a slot acquired behind the controller's back.
    ctl.ledger.acquire(0)
    monitor.sweep()
    assert any("ledger-balance" in v for v in monitor.violations)


def test_monitor_catches_misrouted_registry_entries():
    driver = FleetDriver(n_sites=1, registry_shards=3)
    monitor = InvariantMonitor(driver)
    handle = "gsh://svc-0:8000/steer-x"
    reg = driver.sites[0].registry
    right = reg.shard_for(handle)
    wrong = next(s for s in driver.shards if s is not right)
    # Corrupt: publish straight into the wrong shard (what a buggy
    # rebalance would leave behind).
    wrong.publish(handle, {"type": "steering"})
    monitor.sweep()
    assert any("shard-routing" in v for v in monitor.violations)
    # And a duplicate across two shards is its own violation.
    right.publish(handle, {"type": "steering"})
    monitor.violations.clear()
    monitor.sweep()
    assert any("one-shard-per-handle" in v for v in monitor.violations)


def test_monitor_catches_front_end_shard_divergence():
    driver = FleetDriver(n_sites=2, registry_shards=2)
    monitor = InvariantMonitor(driver)
    # Corrupt: one front-end loses sight of a shard (a broken growth
    # path would do this; add_registry_shard exists to prevent it).
    driver.sites[1].registry.shards = driver.shards[:1]
    monitor.sweep()
    assert any("front-end-shards" in v for v in monitor.violations)


def _lossless(monitor):
    return [v for v in monitor.violations if "telemetry-lossless" in v]


def test_monitor_catches_a_lossy_moments_merge(monkeypatch):
    driver, ctl, monitor = _ran_world()
    assert monitor.ok
    assert driver.telemetry.merged_stats("steer_latency").n > 0

    def forgetful(self, other):
        # Corrupt: a merge that folds nothing in.  A law reduced to
        # comparing the per-session sum with itself never sees this.
        return self

    monkeypatch.setattr(RunningStats, "merge", forgetful)
    monitor.sweep()
    assert any("merged steer_latency n=0 !=" in v for v in _lossless(monitor))
    monitor.violations.clear()
    monitor.final_check()
    assert _lossless(monitor)


def test_final_check_catches_a_lossy_reservoir_merge():
    driver, ctl, monitor = _ran_world()
    # Corrupt one session's reservoir count only: the moments still
    # balance, so the periodic sweep — which folds moments — stays
    # silent, and the once-per-world reservoir union speaks up.
    probe = next(iter(driver.telemetry.sessions.values())).steer_latency
    probe.sample.n += 5
    monitor.sweep()
    assert monitor.ok
    monitor.final_check()
    assert [v for v in _lossless(monitor) if "steer_latency reservoir n=" in v]
    assert not [v for v in _lossless(monitor) if "find_latency" in v]


def test_monitor_final_check_flags_non_quiescence():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=8)
    monitor = InvariantMonitor(driver, controller=ctl)
    driver.admit(_proto(name="running"))
    driver.env.run(until=0.5)  # mid-flight
    monitor.final_check()
    assert any("quiescence" in v for v in monitor.violations)


def test_registry_growth_mid_run_stays_lawful():
    """add_registry_shard's rebalance is exactly what law 5 audits:
    grow the shard set under live published state and sweep."""
    driver, ctl, monitor = _ran_world(n_sites=2,
                                      arrivals=(0.0, 0.2, 0.4, 0.6))
    assert monitor.ok
    driver.add_registry_shard()
    monitor.sweep()
    driver.add_registry_shard()
    monitor.sweep()
    assert monitor.ok, monitor.render()


def test_violation_cap_stops_the_flood():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    monitor = InvariantMonitor(driver, max_violations=3)
    for i in range(10):
        driver._notify_session("complete", f"phantom-{i}", 0)
    assert len(monitor.violations) == 3


def test_harness_verdict_counts_sweeps_and_faults():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=4)
    world = ChaosHarness(driver, ctl)
    report = ctl.run(
        TraceArrivals([0.0], suite=[_proto()], prefix="v"), until=30.0
    )
    verdict = world.verdict(report)
    assert verdict["faults_applied"] == 0
    assert verdict["invariant_violations"] == 0
    assert verdict["recovery"]["impacted"] == 0
    assert verdict["recovery"]["recovery_rate"] == 1.0
