"""FleetDriver integration: small fleets through the full fabric."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.fleet import FleetDriver, FleetReport, ScenarioSpec, fleet_of
from repro.unicore.njs import JobStatus


def _small_fleet(n=3, **overrides):
    overrides.setdefault("duration", 2.0)
    overrides.setdefault("cadence", 0.5)
    return fleet_of(n, stagger=0.25, **overrides)


def test_fleet_runs_every_session_to_completion():
    driver = FleetDriver(_small_fleet(3), n_sites=2)
    report = driver.run()
    assert report.n_sessions == 3
    assert report.completed == 3
    assert report.failed == 0
    assert report.timeouts == 0
    # Every session issued its steering ops plus observer status polls.
    assert report.ops >= 3 * 4
    assert report.steer_p50 > 0
    assert report.makespan < driver.deadline()


def test_registry_holds_steering_and_viz_handles_per_session():
    driver = FleetDriver(_small_fleet(3), n_sites=2)
    driver.run()
    # Federation: every site front-end sees the same global entries.
    for site in driver.sites:
        entries = site.registry.find({})
        assert len(entries) == 2 * 3
    by_type = {}
    for e in driver.sites[0].registry.find({}):
        by_type.setdefault(e["metadata"]["type"], []).append(e)
    assert len(by_type["steering"]) == 3
    assert len(by_type["viz-steering"]) == 3


def test_sessions_steer_distinct_applications():
    specs = _small_fleet(2, participants=1)
    driver = FleetDriver(specs, n_sites=2)
    report = driver.run()
    assert report.completed == 2
    # Per-session telemetry exists under each spec name.
    assert set(driver.telemetry.sessions) == {s.name for s in specs}
    for tel in driver.telemetry.sessions.values():
        assert tel.ops == specs[0].n_ops
        assert tel.admitted_at is not None
        assert tel.finished_at > tel.admitted_at


def test_profile_placement_uses_matching_link():
    # A transatlantic session must see >= 2*45ms per steer round trip;
    # a campus session must be far below that.
    specs = [
        ScenarioSpec(name="slow", sim="building", profile="transatlantic",
                     duration=2.0, cadence=0.5, participants=1),
        ScenarioSpec(name="fast", sim="building", profile="campus",
                     duration=2.0, cadence=0.5, participants=1),
    ]
    driver = FleetDriver(specs, n_sites=1)
    report = driver.run()
    assert report.completed == 2
    slow = driver.telemetry.sessions["slow"].steer_latency
    fast = driver.telemetry.sessions["fast"].steer_latency
    assert slow.percentile(50) >= 0.09
    assert fast.percentile(50) <= 0.05


def test_unusual_profile_gets_dedicated_client_host():
    specs = [ScenarioSpec(name="dsl-user", profile="dsl",
                          duration=1.0, cadence=0.5, participants=1)]
    driver = FleetDriver(specs, n_sites=1)
    report = driver.run()
    assert report.completed == 1
    assert "obs-dsl-0" in driver.net.hosts


def test_driver_rejects_bad_fleets():
    with pytest.raises(ReproError):
        FleetDriver([])
    dup = [ScenarioSpec(name="same"), ScenarioSpec(name="same")]
    with pytest.raises(ReproError):
        FleetDriver(dup)


def test_report_round_trips_to_dict():
    driver = FleetDriver(_small_fleet(2, participants=1), n_sites=1)
    report = driver.run(wall_seconds=1.25)
    assert isinstance(report, FleetReport)
    d = report.to_dict()
    assert d["sessions"] == 2 and d["completed"] == 2
    assert d["wall_seconds"] == 1.25
    assert d["steer_p50_ms"] > 0
    text = report.render(per_session=True)
    assert "2/2 sessions completed" in text
    for spec_row in report.per_session:
        assert spec_row.name in text


def _transatlantic_storm(**overrides):
    spec = ScenarioSpec(
        name="ta", sim="building", profile="transatlantic", cadence=0.05, compute_time=0.1,
        **overrides,
    )  # fmt: skip
    driver = FleetDriver(fleet_of(4, suite=[spec], stagger=0.2), n_sites=4)
    return driver.specs[0], driver.run()


def test_an_overloaded_steering_loop_is_budgeted_not_starved():
    """120 ops at cadence 0.05 over a 90 ms round trip outlast the usual
    (duration + 10) / compute_time = 160 steps: the app used to end before
    its loop, and every later command died on the service's reply timeout."""
    spec, starved = _transatlantic_storm(steps=160)  # the old derivation
    assert (starved.completed, starved.errors, starved.timeouts) == (0, 12, 0)
    assert starved.makespan == pytest.approx(51.7, abs=0.05)
    spec, report = _transatlantic_storm()
    assert spec.steps == 387  # 120 x (0.05 + 2 x 0.045 + 0.1) + 10 s, in steps
    assert (report.completed, report.errors, report.timeouts) == (4, 0, 0)
    assert report.makespan == pytest.approx(25.35, abs=0.05)
    _, generous = _transatlantic_storm(steps=1000)
    assert generous.to_dict() == report.to_dict()  # a larger budget changes nothing


def test_cancel_during_the_stagger_wait_fails_the_session():
    # A batch session is tracked (and cancellable) from t=0 but first
    # waits out its admission offset: a cancel in that wait must fail
    # the session and notify "cancel", not crash the world.
    driver = FleetDriver(fleet_of(4), n_sites=2)
    seen = []
    driver.session_observers.append(lambda kind, name, site: seen.append((kind, name)))

    def cancel_all():
        yield driver.env.timeout(0.5)
        for name in list(driver.active):
            assert driver.cancel_session(name, "test")

    driver.env.process(cancel_all())
    report = driver.run()
    assert (report.completed, report.failed) == (0, 4)
    waiting = [s.name for s in driver.specs if s.admission_offset > 0.5]
    assert waiting
    for name in waiting:
        assert ("cancel", name) in seen
        assert driver.telemetry.sessions[name].failure == "cancelled: test"
    assert not driver.active


def test_site_outage_during_the_stagger_wait_is_survived():
    from repro.chaos import ChaosHarness, FaultSchedule, SiteOutage

    driver = FleetDriver(fleet_of(8, stagger=0.5), n_sites=2)
    world = ChaosHarness(driver)
    world.install(FaultSchedule([SiteOutage(at=1.2, duration=3.0, site=1)]))
    report = driver.run()
    assert world.verdict(report)["invariant_violations"] == 0
    assert report.completed + report.failed == 8
    assert report.failed > 0


def test_a_session_cancelled_before_it_starts_leaves_no_steering_state():
    # Every way a session ends drops its queued steers and its degrade
    # mark — the cancel that lands in the admission wait included.
    driver = FleetDriver(fleet_of(3, stagger=2.0), n_sites=2)
    third = driver.specs[2].name
    assert driver.specs[2].admission_offset > 1.0

    def steer_degrade_cancel():
        yield driver.env.timeout(1.0)
        assert driver.request_steer(third, 3.0)
        driver.degrade_session(third)
        assert driver.cancel_session(third)

    driver.env.process(steer_degrade_cancel())
    report = driver.run()
    assert driver.telemetry.sessions[third].failure == "cancelled: cancelled"
    assert report.completed == 2
    assert driver.steer_requests == {}
    assert driver.degraded == set()
    assert not driver.active


def test_run_is_single_shot():
    driver = FleetDriver(fleet_of(4), n_sites=2)
    starts = []
    driver.session_observers.append(
        lambda kind, name, site: starts.append(name) if kind == "start" else None
    )
    first = driver.run()
    now = driver.env.now
    with pytest.raises(ReproError, match="already ran"):
        driver.run()
    assert len(starts) == 4  # nothing relaunched
    assert not driver.active
    assert driver.env.now == now
    assert driver.report().to_dict() == first.to_dict()


def test_a_diverged_lattice_fails_its_unicore_task_and_its_session():
    # g = 4.5 is accepted, and on the fleet's 6³ lattice it overflows at
    # step 36; the steer overrides keep the session from lowering it.
    spec = ScenarioSpec(name="boom", sim="lb3d", sim_args={"g": 4.5}, participants=1,
                        duration=3.0)
    driver = FleetDriver([spec], n_sites=1)
    driver.steer_requests["boom"] = [4.5, 4.5]
    with np.errstate(over="ignore", invalid="ignore"):
        report = driver.run()
    (job,) = driver.sites[0].njs.jobs.values()
    assert job.status is JobStatus.FAILED
    assert job.error == "task 'run' failed: ReproError: LB3D diverged by step 36 at g=4.5"
    assert report.completed == 0
