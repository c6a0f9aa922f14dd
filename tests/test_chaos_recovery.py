"""Fault-matrix regressions: recovery policies over a live open-loop fleet.

The satellite coverage the chaos PR promises:

* BrokerPool failover when the master vbroker dies mid-session;
* registry-shard loss + rebuild: steer commands still land, handles
  re-resolve;
* ``load.admission`` requeue/abandonment under an injected site outage
  (beyond the static overload of the open-loop tests);
* ``ogsa.migration`` when the target site dies mid-migration;
* the acceptance scenario: site outage + vbroker crash at 2x load —
  zero invariant violations, >= 90% of impacted sessions recovered via
  migrate/retry, byte-for-byte identical reruns.  Its world is the
  compound cell of ``tests/test_behaviour_table.py`` (row
  CHAOS-COMPOUND), shared through that module's cache.
"""

import json

import pytest

from repro.chaos import (
    ChaosHarness,
    ContainerCrash,
    FaultSchedule,
    RecoveryPolicy,
    RegistryShardLoss,
    SiteOutage,
    SlowNode,
    VBrokerCrash,
    retry_name,
    root_name,
)
from repro.errors import ChaosError, OgsaError
from repro.fleet import BrokerPool, FleetDriver
from repro.fleet.spec import ScenarioSpec, paper_suite
from repro.load import AdmissionController, TraceArrivals
from test_behaviour_table import COMPOUND, QUEUE_LIMIT, chaos_cell


def _proto(**kw):
    kw.setdefault("duration", 2.0)
    kw.setdefault("cadence", 0.5)
    kw.setdefault("participants", 1)
    kw.setdefault("name", "proto")
    return ScenarioSpec(**kw)


def _world(n_sites=3, pool=False, policy=None):
    driver = FleetDriver(n_sites=n_sites, queue_slots=2)
    broker_pool = (
        BrokerPool.build(
            driver.net, [s.svc_name for s in driver.sites], port=7100
        )
        if pool else None
    )
    ctl = AdmissionController(driver, queue_limit=16)
    world = ChaosHarness(driver, ctl, pool=broker_pool, policy=policy)
    return driver, ctl, world


# -- retry: site outage through the admission controller ---------------------


def test_site_outage_requeues_and_sessions_recover_elsewhere():
    driver, ctl, world = _world()
    world.install(FaultSchedule([SiteOutage(at=3.0, site=0, duration=15.0)]))
    report = ctl.run(
        TraceArrivals([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], suite=[_proto()],
                      prefix="so"),
        until=80.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    rec = verdict["recovery"]
    assert rec["impacted"] >= 1
    assert rec["recovered_via"]["retry"] == rec["impacted"]
    assert rec["abandoned"] == 0
    # The requeues rode the bound-exempt recovery path and landed on
    # live sites, not the dead one.
    assert report.queue.requeued == rec["impacted"]
    for name, site in driver.site_of.items():
        if "~r" in name:
            assert site != 0
            assert driver.telemetry.sessions[name].completed
    # The cancelled originals are recorded as failed, not lost.
    cancelled = [t for t in driver.telemetry.sessions.values()
                 if t.failure and "site-outage" in t.failure]
    assert len(cancelled) == rec["impacted"]


def _paper_world(outage):
    """Eight paper-suite sessions, one every 0.2 s, over two sites; with
    ``outage``, site 0 goes dark for 5 s at 4.0 s, about half the
    undisturbed makespan (8.9 s)."""
    driver = FleetDriver(n_sites=2)
    ctl = AdmissionController(driver, queue_limit=256)
    world = ChaosHarness(driver, ctl)
    if outage:
        world.install(FaultSchedule([SiteOutage(at=4.0, site=0, duration=5.0)]))
    report = ctl.run(TraceArrivals([0.2 * i for i in range(8)], suite=paper_suite(),
                                   prefix="ps"))
    return driver, world.verdict(report)


def test_a_retried_session_runs_exactly_as_long_as_its_undisturbed_twin():
    # Why a lost compute host is answered by a relaunch, not by restoring
    # a checkpoint: a session lasts its op schedule (n_ops x cadence plus
    # round trips, 6.5 s here), not its sim's step budget (16 s), so
    # rerunning the sim from step 0 costs the retry no time.  "Exactly"
    # is to a millisecond (one step's compute is 50 ms): float time at
    # another offset moves it by microseconds.
    spec = paper_suite()[0]
    twin, _ = _paper_world(outage=False)
    driver, verdict = _paper_world(outage=True)
    rec = verdict["recovery"]
    assert rec["impacted"] >= 2 and rec["recovered_via"]["retry"] == rec["impacted"]
    retried = {
        name: tel.session_time
        for name, tel in driver.telemetry.sessions.items()
        if root_name(name) != name
    }
    assert len({root_name(name).rsplit("-", 1)[1] for name in retried}) >= 2  # two app kinds
    assert all(tel.completed for tel in twin.telemetry.sessions.values())
    for name, took in retried.items():
        assert driver.telemetry.sessions[name].completed
        assert took < spec.duration + 1.0 < spec.steps * spec.compute_time
        assert took == pytest.approx(twin.telemetry.sessions[root_name(name)].session_time,
                                     abs=1e-3), name


def test_abandon_policy_gives_up_instead_of_requeueing():
    policy = RecoveryPolicy(site_outage="abandon")
    driver, ctl, world = _world(policy=policy)
    world.install(FaultSchedule([SiteOutage(at=1.5, site=0, duration=15.0)]))
    report = ctl.run(
        TraceArrivals([0.0, 0.3, 0.6], suite=[_proto()], prefix="ab"),
        until=60.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    rec = verdict["recovery"]
    assert rec["abandoned"] == rec["impacted"] >= 1
    assert rec["recovered"] == 0
    assert report.queue.requeued == 0


def test_retry_budget_caps_cascading_outages():
    # Both sites die back to back: the retry of the retry exceeds the
    # budget (max_retries=1) and the session is abandoned, not looped.
    policy = RecoveryPolicy(max_retries=1)
    driver, ctl, world = _world(n_sites=2, policy=policy)
    world.install(FaultSchedule([
        SiteOutage(at=2.0, site=0, duration=40.0),
        SiteOutage(at=6.0, site=1, duration=40.0),
    ]))
    report = ctl.run(
        TraceArrivals([0.0], suite=[_proto(duration=8.0)], prefix="rb"),
        until=120.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    rec = verdict["recovery"]
    assert rec["abandoned"] >= 1
    names = set(driver.telemetry.sessions)
    assert retry_name("rb00000-lb3d", 1) in names
    assert retry_name("rb00000-lb3d", 2) not in names


def test_recovery_policy_validation():
    with pytest.raises(ChaosError):
        RecoveryPolicy(site_outage="migrate")  # nothing left to migrate
    with pytest.raises(ChaosError):
        RecoveryPolicy(container_crash="teleport")
    with pytest.raises(ChaosError):
        RecoveryPolicy(max_retries=-1)
    assert root_name(retry_name("s", 2)) == "s"


# -- migrate: container crash, clients re-resolve ----------------------------


def test_container_crash_migrates_services_and_steering_resumes():
    driver, ctl, world = _world()
    world.install(FaultSchedule([ContainerCrash(at=3.0, site=0)]))
    report = ctl.run(
        TraceArrivals([0.0, 0.2, 0.4], suite=[_proto(duration=4.0)],
                      prefix="mg"),
        until=80.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    rec = verdict["recovery"]
    assert rec["recovered_via"]["migrate"] >= 1
    assert rec["recovery_rate"] >= 0.9
    # The migrated sessions completed *without* relaunching: same name,
    # no retry suffix, telemetry completed.
    migrated = [s for _, _, action, s in world.recovery.events
                if action == "migrate"]
    for name in migrated:
        assert driver.telemetry.sessions[name].completed
    # Their services now live in another site's container and the
    # resolver agrees (handles re-resolve to the new host).
    from repro.ogsa.handles import GridServiceHandle

    source = driver.sites[0].container
    for name in migrated:
        assert f"steer-{name}" not in source.deployed()
        ref = driver.resolver.resolve(
            GridServiceHandle(source.authority, f"steer-{name}")
        )
        assert ref.host != driver.sites[0].svc_name


def test_degrade_policy_sheds_ops_but_completes():
    policy = RecoveryPolicy(slow_node="degrade")
    driver, ctl, world = _world(policy=policy)
    world.install(FaultSchedule([
        SlowNode(at=2.0, site=0, factor=10.0, duration=5.0),
    ]))
    report = ctl.run(
        TraceArrivals([0.0], suite=[_proto(duration=6.0)], prefix="dg"),
        until=60.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    rec = verdict["recovery"]
    assert rec["degraded"] == 1
    tel = driver.telemetry.sessions["dg00000-lb3d"]
    assert tel.completed
    # Ops were shed: fewer than the spec's full plan.
    assert tel.ops < _proto(duration=6.0).n_ops


# -- fabric-level: vbroker failover and shard loss ---------------------------


def test_master_vbroker_crash_fails_sessions_over_to_live_brokers():
    driver, ctl, world = _world(pool=True)
    pool = world.injector.pool
    world.install(FaultSchedule([VBrokerCrash(at=2.0, broker=0)]))
    report = ctl.run(
        TraceArrivals([0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                      suite=[_proto(duration=4.0)], prefix="vb"),
        until=80.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    assert verdict["recovery"]["broker_failovers"] >= 1
    assert pool.failovers >= 1
    # Every re-placed session sits on a live broker now.
    for session, idx in pool._placement.items():
        assert pool.brokers[idx].alive
    # Steering was never disturbed (the OGSA path is broker-independent;
    # the failover protects the collaborative fan-out).
    assert report.completed == report.queue.admitted


def test_shard_loss_rebuild_republishes_and_handles_reresolve():
    driver, ctl, world = _world()
    schedule = FaultSchedule([RegistryShardLoss(at=2.5, shard=0)])
    world.install(schedule)
    report = ctl.run(
        TraceArrivals([0.0, 0.2, 0.4, 0.6], suite=[_proto(duration=4.0)],
                      prefix="sh"),
        until=80.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    assert verdict["recovery"]["registry_rebuilds"] == 1
    # Steer commands kept landing: sessions completed with zero errors
    # (finds already done) and the rebuilt registry resolves every live
    # session's steering handle through every front-end.
    assert report.completed == report.queue.admitted
    rebuilt = [s for _, _, action, s in world.recovery.events
               if action == "rebuild"]
    assert rebuilt


def test_rebuild_registry_restores_find_after_total_loss():
    driver, ctl, world = _world(n_sites=2)
    done = driver.admit(_proto(name="keeper", duration=2.0))
    driver.env.run(until=30.0)
    assert done._ok
    reg = driver.sites[0].registry
    assert len(reg.find({"application": "keeper"})) == 2
    # Lose every shard, then rebuild from the containers.
    for shard in driver.shards:
        shard.clear()
    assert reg.find({}) == []
    restored = world.recovery.rebuild_registry()
    assert restored == 2
    entries = reg.find({"application": "keeper"})
    assert {e["metadata"]["type"] for e in entries} == {
        "steering", "viz-steering"
    }


def test_cancel_of_a_migrated_session_clears_pending_state():
    """Regression: a second fault cancelling an already-migrated session
    must drop the stale pending-migrate expectation (the canceller's
    retry owns the follow-up), not leak it for the rest of the run."""
    driver, ctl, world = _world(n_sites=3)
    world.install(FaultSchedule([
        ContainerCrash(at=1.5, site=0),            # migrate away
        SiteOutage(at=2.5, site=0, duration=20.0),  # then kill the site
    ]))
    report = ctl.run(
        TraceArrivals([0.0, 0.2], suite=[_proto(duration=6.0)],
                      prefix="cx"),
        until=120.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0, world.monitor.render()
    assert world.recovery._pending_migrate == {}
    assert world.recovery._pending_retry == {}
    # Nothing stuck: every session reached a terminal state.
    assert report.completed + report.failed == report.n_sessions


def test_rebuild_after_migration_keeps_canonical_handles():
    """Regression: a migrated service's GSH keeps its *source* authority;
    the rebuild must republish that handle, not mint a new one under the
    hosting container's authority (which the resolver has never seen)."""
    from repro.ogsa.migration import migrate_service

    driver, ctl, world = _world(n_sites=2)
    done = driver.admit(_proto(name="mover", duration=2.0, ), site=0)
    driver.env.run(until=30.0)
    assert done._ok
    migrate_service(
        "steer-mover", driver.sites[0].container,
        driver.sites[1].container, driver.resolver,
    )
    reg = driver.sites[0].registry
    canonical = next(
        e["handle"] for e in reg.find({"application": "mover"})
        if e["metadata"]["type"] == "steering"
    )
    job_id = reg.lookup(canonical)["job"]
    for shard in driver.shards:  # total loss
        shard.clear()
    world.recovery.rebuild_registry()
    entries = reg.find({"application": "mover"})
    handles = {e["handle"] for e in entries}
    assert canonical in handles
    assert len(entries) == 2  # steering + viz, no duplicate identities
    # Survived metadata is reconstructed minimally; but every published
    # handle must resolve — the law the monitor also audits.
    from repro.ogsa.handles import GridServiceHandle

    for handle in handles:
        ref = driver.resolver.resolve(GridServiceHandle.parse(handle))
        assert ref.host in driver.net.hosts
    world.monitor.sweep()
    assert world.monitor.ok, world.monitor.render()
    assert job_id  # the pre-loss entry carried the orchestrator's job id


# -- ogsa.migration: target dies mid-migration -------------------------------


def test_migrate_into_dead_container_refused_and_source_keeps_service():
    from repro.des import Environment
    from repro.net import Network, SyncPipe
    from repro.ogsa import HandleResolver, OgsiLiteContainer, SteeringService
    from repro.ogsa.migration import migrate_service

    env = Environment()
    net = Network(env)
    net.add_host("old")
    net.add_host("new")
    old = OgsiLiteContainer(net.host("old"), 8000, authority="auth")
    new = OgsiLiteContainer(net.host("new"), 8000, authority="auth")
    old.start()
    new.start()
    svc = SteeringService("steer", SyncPipe().b)
    old.deploy(svc)
    # The target site dies between choosing it and moving the service.
    new.stop()
    assert new.dead
    with pytest.raises(OgsaError, match="down"):
        migrate_service("steer", old, new, HandleResolver())
    assert old.deployed() == ["steer"]  # nothing lost
    assert new.deployed() == []
    # After the target heals, the same migration goes through.
    new.restart()
    resolver = HandleResolver()
    from repro.ogsa.handles import GridServiceHandle, GridServiceReference

    resolver.bind(GridServiceReference(
        GridServiceHandle("auth", "steer"), "old", 8000, ()))
    migrate_service("steer", old, new, resolver)
    assert new.deployed() == ["steer"] and old.deployed() == []


# -- the acceptance scenario -------------------------------------------------


def test_acceptance_outage_plus_vbroker_crash_at_2x_load():
    report, verdict = chaos_cell(COMPOUND)
    # Zero invariant violations under compound faults at overload.
    assert verdict["invariant_violations"] == 0, verdict["violations"]
    rec = verdict["recovery"]
    # A site holds at most queue_slots sessions; the outage strands them
    # all and the broker crash fails the survivors over.
    assert rec["impacted"] >= 2
    assert rec["broker_failovers"] > 0
    # >= 90% of impacted sessions recovered via migrate/retry.
    recovered = rec["recovered_via"]["retry"] + rec["recovered_via"]["migrate"]
    assert recovered / rec["impacted"] >= 0.9, rec
    assert rec["abandoned"] <= rec["impacted"] * 0.1
    # The admission controller still sheds *fresh* load explicitly.
    assert report.queue.rejected > 0
    assert report.queue.depth_max <= QUEUE_LIMIT


def test_acceptance_rerun_is_byte_for_byte_identical():
    rep_a, ver_a = chaos_cell(COMPOUND)
    rep_b, ver_b = chaos_cell.__wrapped__(COMPOUND)
    blob_a = json.dumps(
        {"report": rep_a.to_dict(), "verdict": ver_a}, sort_keys=True
    )
    blob_b = json.dumps(
        {"report": rep_b.to_dict(), "verdict": ver_b}, sort_keys=True
    )
    assert blob_a == blob_b
