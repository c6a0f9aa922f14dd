"""Reactive autoscaler: grow on depth, drain idle, respect bounds."""

from types import SimpleNamespace

import pytest

from repro.des import Environment
from repro.errors import LoadError
from repro.fleet import FleetTelemetry
from repro.fleet.spec import ScenarioSpec
from repro.load import (
    AdmissionController,
    CapacityLedger,
    ReactiveAutoscaler,
    SloClass,
    TraceArrivals,
)
from repro.obs import Observability

PATIENT = SloClass("patient", priority=0, wait_slo=30.0, patience=200.0)


class FakeElasticDriver:
    """FleetDriver stand-in with add_site/add_registry_shard."""

    def __init__(self, env, n_sites=1, service_time=5.0, site_slots=1):
        self.env = env
        self.telemetry = FleetTelemetry()
        self.obs = Observability(metrics=False)  # a FleetDriver's is never None
        self.service_time = service_time
        self.site_slots = site_slots
        self.sites = [self._mk_site(i) for i in range(n_sites)]
        self.launched = []
        self.shards_added = 0

    def _mk_site(self, i):
        return SimpleNamespace(
            index=i, tsi=SimpleNamespace(
                queue=SimpleNamespace(capacity=self.site_slots)
            ),
        )

    def add_site(self, queue_slots=None):
        site = self._mk_site(len(self.sites))
        self.sites.append(site)
        return site

    def add_registry_shard(self):
        self.shards_added += 1

    def admit(self, spec, site=None):
        self.launched.append((self.env.now, spec.name, site))
        return self.env.process(self._serve(spec))

    def _serve(self, spec):
        yield self.env.timeout(self.service_time)
        self.telemetry.session(spec.name).mark_completed(self.env.now)


def _world(n_sites=1, service_time=5.0, queue_limit=32):
    env = Environment()
    driver = FakeElasticDriver(env, n_sites=n_sites,
                               service_time=service_time)
    ledger = CapacityLedger()
    for site in driver.sites:
        ledger.register_site(site.index, 1)
    ctl = AdmissionController(driver, ledger=ledger, queue_limit=queue_limit,
                              classifier=lambda s: PATIENT)
    return env, driver, ctl


def _burst(n, at=0.0):
    return TraceArrivals(
        [at] * n,
        suite=[ScenarioSpec(name="p", participants=1, duration=1.0,
                            cadence=0.5)],
        prefix="z",
    )


def test_scaler_grows_under_backlog_and_drains_when_idle():
    env, driver, ctl = _world(n_sites=1, service_time=5.0)
    scaler = ReactiveAutoscaler(ctl, max_sites=4, high_depth=2, low_depth=0,
                                interval=1.0, cooldown=0.0)
    ctl.feed(_burst(8))
    env.run(until=60.0)
    grow = [e for e in scaler.events if e[1] == "grow"]
    drain = [e for e in scaler.events if e[1] == "drain"]
    assert grow, "backlog should have triggered growth"
    assert len(driver.sites) <= 4
    assert ctl.telemetry.scale_ups == len(grow)
    # After the burst drains, the scaler-built sites are drained again.
    assert drain and ctl.telemetry.scale_downs == len(drain)
    added = set(scaler.added_sites)
    assert all(idx in added for _, _, idx in drain)
    # The base site (index 0) is never drained.
    assert not ctl.ledger.is_drained(0)
    # All eight sessions were eventually served.
    assert ctl.telemetry.admitted == 8
    assert driver.shards_added == len(set(i for _, _, i in grow))


def test_scaler_reopens_drained_site_before_building_new():
    env, driver, ctl = _world(n_sites=1, service_time=3.0)
    scaler = ReactiveAutoscaler(ctl, max_sites=3, high_depth=2, low_depth=0,
                                interval=1.0, cooldown=0.0)

    def traffic():
        # Wave one: force growth.
        for i in range(4):
            ctl.offer(ScenarioSpec(name=f"w1-{i}", participants=1,
                                   duration=1.0, cadence=0.5))
        yield env.timeout(30.0)  # drain back down
        for i in range(4):
            ctl.offer(ScenarioSpec(name=f"w2-{i}", participants=1,
                                   duration=1.0, cadence=0.5))

    env.process(traffic())
    env.run(until=80.0)
    grows = [e for e in scaler.events if e[1] == "grow"]
    drains = [e for e in scaler.events if e[1] == "drain"]
    assert len(grows) >= 2 and drains
    # Wave two reuses a previously drained site: the site count did not
    # keep climbing past what wave one built.
    built = {i for _, _, i in grows}
    assert len(driver.sites) == 1 + len(built - {0})


def test_scaler_respects_max_sites():
    env, driver, ctl = _world(n_sites=1, service_time=50.0)
    ReactiveAutoscaler(ctl, max_sites=2, high_depth=1, low_depth=0,
                       interval=0.5, cooldown=0.0)
    ctl.feed(_burst(12))
    env.run(until=30.0)
    assert len(driver.sites) <= 2


def test_scaler_validation():
    env, driver, ctl = _world(n_sites=2)
    with pytest.raises(LoadError):
        ReactiveAutoscaler(ctl, max_sites=1)  # below the base fabric
    with pytest.raises(LoadError):
        ReactiveAutoscaler(ctl, max_sites=4, high_depth=2, low_depth=2)
    with pytest.raises(LoadError):
        ReactiveAutoscaler(ctl, max_sites=4, interval=0.0)


def test_cooldown_throttles_actions():
    env, driver, ctl = _world(n_sites=1, service_time=50.0)
    scaler = ReactiveAutoscaler(ctl, max_sites=8, high_depth=1, low_depth=0,
                                interval=1.0, cooldown=10.0)
    ctl.feed(_burst(16))
    env.run(until=15.0)
    # 15 virtual seconds with a 10s cooldown: at most two scale actions.
    assert len(scaler.events) <= 2
