"""Open-loop integration: arrivals through the real FleetDriver fabric."""

import pytest

from repro.errors import ReproError
from repro.fleet import FleetDriver
from repro.fleet.spec import ScenarioSpec
from repro.load import (
    AdmissionController,
    PoissonArrivals,
    scorecard,
)


def _spec(name, **kw):
    kw.setdefault("duration", 2.0)
    kw.setdefault("cadence", 0.5)
    kw.setdefault("participants", 1)
    return ScenarioSpec(name=name, **kw)


def test_open_loop_small_poisson_run_completes():
    driver = FleetDriver(n_sites=2, queue_slots=3)
    ctl = AdmissionController(driver, queue_limit=8)
    arrivals = PoissonArrivals(rate=0.4, horizon=10.0, seed=7,
                               duration=2.0, cadence=0.5)
    report = ctl.run(arrivals)
    q = report.queue
    assert q is not None
    assert q.offered == arrivals.count() > 0
    assert q.rejected == 0 and q.abandoned == 0
    assert report.completed == q.admitted == q.offered
    assert report.failed == 0
    # Plenty of capacity: everyone met the admission SLO.
    assert q.slo_met == q.admitted
    card = scorecard(ctl, horizon=arrivals.horizon)
    assert card.completed_in_slo == report.completed
    assert card.goodput > 0
    # The load slice round-trips through to_dict for the bench JSON.
    assert report.to_dict()["load"]["admitted"] == q.admitted


def test_driver_admit_is_the_dynamic_entry_point():
    driver = FleetDriver(n_sites=1, queue_slots=4)
    done = driver.admit(_spec("dyn-0"))
    later = driver.admit(_spec("dyn-1", admission_offset=3.0))
    driver.env.run(until=40.0)
    assert done.ok and later.ok
    assert driver.telemetry.sessions["dyn-0"].completed
    tel = driver.telemetry.sessions["dyn-1"]
    assert tel.completed and tel.admitted_at >= 3.0
    report = driver.report()
    assert report.completed == 2
    # Dynamic admissions appear in the per-session rows with their sims.
    assert {r.name for r in report.per_session} == {"dyn-0", "dyn-1"}
    assert all(r.sim == "lb3d" for r in report.per_session)


def test_driver_admit_rejects_duplicate_names():
    driver = FleetDriver(n_sites=1, queue_slots=4)
    driver.admit(_spec("dup"))
    with pytest.raises(ReproError):
        driver.admit(_spec("dup"))


def test_open_loop_driver_requires_explicit_horizon():
    driver = FleetDriver(n_sites=1)
    with pytest.raises(ReproError):
        driver.run()  # no specs, no until: nothing to derive a deadline from
    with pytest.raises(ReproError):
        driver.deadline()


def test_add_site_grows_the_fabric_mid_run():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    assert len(driver.sites) == 1
    site = driver.add_site()
    assert site.index == 1 and len(driver.sites) == 2
    # The new site shares the shard set: a session admitted there is
    # findable through the original site's registry front-end.
    done = driver.admit(_spec("grown"), site=site)
    driver.env.run(until=40.0)
    assert done.ok
    entries = driver.sites[0].registry.find({"application": "grown"})
    assert len(entries) == 2  # steering + viz handles


def test_add_registry_shard_rebalances_and_stays_consistent():
    driver = FleetDriver(n_sites=2, registry_shards=2)
    reg0, reg1 = driver.sites[0].registry, driver.sites[1].registry
    handles = [f"gsh://svc-{i}:8000/steer-{i}" for i in range(40)]
    for i, h in enumerate(handles):
        reg0.publish(h, {"application": f"app-{i % 5}", "type": "steering"})
    before = reg1.find({})
    assert len(before) == 40

    shard = driver.add_registry_shard()
    assert len(driver.shards) == 3
    # Every front-end sees the new shard and the same entries.
    for reg in (reg0, reg1):
        assert len(reg.shards) == 3
        assert reg.find({}) == before
        for h in handles:
            assert reg.lookup(h)["type"] == "steering"
    # Entries actually moved onto the new shard (crc32 spread).
    assert len(shard) > 0
    assert sum(map(len, driver.shards)) == 40
    # Sites built after the growth inherit the full shard set.
    site = driver.add_site()
    assert len(site.registry.shards) == 3
    assert site.registry.find({}) == before
