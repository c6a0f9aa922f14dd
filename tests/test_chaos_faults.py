"""Fault taxonomy, schedule DSL and injector mechanics (no recovery)."""

import pytest

from repro.chaos import (
    ChaosHarness,
    ContainerCrash,
    FaultInjector,
    FaultSchedule,
    FirewallLockdown,
    LinkDegrade,
    Partition,
    RegistryShardLoss,
    SiteOutage,
    SlowNode,
    VBrokerCrash,
)
from repro.des import Environment
from repro.errors import ChaosError, HostUnreachable
from repro.fleet import FleetDriver
from repro.net import Firewall, Network


# -- DSL validation ----------------------------------------------------------


def _describe(schedule):
    return [fault.describe() for fault in schedule]


def _degraded(link):
    return (link.latency, link.bandwidth) != (link.base_latency, link.base_bandwidth)


def test_fault_validation_rejects_nonsense():
    with pytest.raises(ChaosError):
        SiteOutage(at=-1.0, site=0)
    with pytest.raises(ChaosError):
        SiteOutage(at=1.0, site=0, duration=0.0)
    with pytest.raises(ChaosError):
        SiteOutage(at=1.0, site=-1)
    with pytest.raises(ChaosError):
        LinkDegrade(at=1.0, a="x", b="y", latency_factor=0.5)
    with pytest.raises(ChaosError):
        SlowNode(at=1.0, site=0, factor=1.0)
    with pytest.raises(ChaosError):
        # Shard loss is permanent data loss; a duration makes no sense.
        RegistryShardLoss(at=1.0, shard=0, duration=5.0)
    # Ill-typed fields are refused where the fault is built, not where
    # the fabric would trip over them.
    nan, inf = float("nan"), float("inf")
    for build in (
        lambda: SiteOutage(at=1.0, site=0.5),
        lambda: SiteOutage(at=1.0, site=True),
        lambda: SiteOutage(at=nan, site=0),
        lambda: SiteOutage(at=1.0, site=0, duration=inf),
        lambda: SlowNode(at=1.0, site=0, factor=nan),
        lambda: LinkDegrade(at=1.0, a=["x"], b="y"),
        lambda: Partition(at=1.0, a="x", b="x"),
        lambda: VBrokerCrash(at=1.0, broker="0"),
        lambda: FirewallLockdown(at=1.0, host=3),
    ):
        with pytest.raises(ChaosError):
            build()


def test_schedule_orders_by_time_and_reports_horizon():
    sched = FaultSchedule()
    sched.add(SiteOutage(at=9.0, site=1, duration=2.0))
    sched.add(Partition(at=2.0, a="x", b="y", duration=1.0))
    sched.add(SiteOutage(at=2.0, site=0))  # same instant: insertion order
    kinds = [f.kind for f in sched]
    assert kinds == ["partition", "site-outage", "site-outage"]
    assert max(f.at + (f.duration or 0.0) for f in sched) == 11.0
    assert len(list(sched)) == 3
    assert all("t=" in f.describe() for f in sched)


def test_schedule_rejects_non_faults():
    with pytest.raises(ChaosError):
        FaultSchedule(["not a fault"])


def test_random_schedule_is_seeded_and_replayable():
    kw = dict(
        horizon=30.0, n_faults=6, sites=3, shards=2, brokers=2,
        hosts=("hpc-0",), host_pairs=(("hpc-0", "svc-0"),),
    )
    a = FaultSchedule.random(seed=42, **kw)
    b = FaultSchedule.random(seed=42, **kw)
    c = FaultSchedule.random(seed=43, **kw)
    assert _describe(a) == _describe(b)
    assert _describe(a) != _describe(c)
    assert len(list(a)) == 6
    # Slotted generation: apply/revert windows never overlap.
    windows = sorted((f.at, f.at + (f.duration or 0.0)) for f in a)
    for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
        assert e0 <= s1


def test_random_schedule_draws_are_pinned():
    """Recorded literally: a refactor of the draw must keep every seed's
    schedule.  Seeds 2 and 14 between them draw all eight kinds."""
    kw = dict(
        horizon=30.0, n_faults=6, sites=3, shards=2, brokers=2,
        hosts=("hpc-0", "hpc-1"), host_pairs=(("hpc-0", "svc-0"), ("hpc-1", "svc-1")),
    )
    assert _describe(FaultSchedule.random(seed=2, **kw)) == [
        "link-degrade(t=0.546536, 1.84652s, a='hpc-0', b='svc-0', latency_factor=11.0, "
        "bandwidth_factor=0.25)",
        "container-crash(t=5.37088, 1.78197s, site=0)",
        "firewall-lockdown(t=9.42155, 2.12048s, host='hpc-1')",
        "slow-node(t=13.2033, 2.47727s, site=0, factor=9.0)",
        "slow-node(t=17.891, 1.87713s, site=1, factor=12.0)",
        "site-outage(t=21.2968, 1.22584s, site=0)",
    ]
    assert _describe(FaultSchedule.random(seed=14, **kw)) == [
        "partition(t=1.38541, 2.06784s, a='hpc-0', b='svc-0')",
        "vbroker-crash(t=5.57621, 1.18562s, broker=0)",
        "slow-node(t=8.88478, 2.32006s, site=1, factor=10.0)",
        "partition(t=12.8216, 2.75256s, a='hpc-1', b='svc-1')",
        "registry-shard-loss(t=17.6926, permanent, shard=0)",
        "site-outage(t=21.2821, 1.98839s, site=0)",
    ]
    assert _describe(FaultSchedule.random(
        seed=5, horizon=20.0, n_faults=4, sites=2, shards=1, window=0.5, duration_scale=2.0,
    )) == [
        "registry-shard-loss(t=0.991787, permanent, shard=0)",
        "slow-node(t=3.52596, 1.36167s, site=0, factor=6.0)",
        "site-outage(t=5.62179, 1.87821s, site=1)",
        "site-outage(t=8.32394, 1.03421s, site=0)",
    ]


def test_random_schedule_excludes_unsatisfiable_kinds():
    sched = FaultSchedule.random(seed=1, horizon=20.0, n_faults=8,
                                 sites=2, shards=1)
    kinds = {f.kind for f in sched}
    assert "vbroker-crash" not in kinds      # no brokers declared
    assert "partition" not in kinds          # no host pairs declared
    assert "firewall-lockdown" not in kinds  # no hosts declared
    with pytest.raises(ChaosError):
        FaultSchedule.random(seed=1, horizon=20.0, sites=0, shards=0)


# -- firewall lockdown (the construct-time-only bugfix) ----------------------


def test_firewall_lockdown_is_a_mid_simulation_transition():
    fw = Firewall.single_port(4433)
    assert fw.allows_inbound(4433) and not fw.allows_inbound(80)
    fw.lockdown()
    assert fw._pre_lockdown is not None
    assert not fw.allows_inbound(4433)
    assert not fw.allow_multicast
    fw.lockdown()  # idempotent: does not clobber the saved policy
    fw.lift_lockdown()
    assert fw._pre_lockdown is None
    assert fw.allows_inbound(4433) and not fw.allows_inbound(80)


def test_lockdown_of_an_open_firewall_restores_open():
    fw = Firewall.open()
    fw.lockdown()
    assert not fw.allows_inbound(1234)
    fw.lift_lockdown()
    assert fw.allows_inbound(1234)
    assert fw.open_ports is None


# -- network-level faults ----------------------------------------------------


def _two_hosts():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=0.010, bandwidth=1e6)
    return env, net


def test_link_degrade_and_restore_are_absolute_against_base():
    env, net = _two_hosts()
    link = net.link("a", "b")
    link.degrade(latency_factor=10.0, bandwidth_factor=0.5)
    assert _degraded(link)
    assert link.latency == pytest.approx(0.100)
    assert link.bandwidth == pytest.approx(0.5e6)
    link.degrade(latency_factor=2.0)  # absolute, not compounding
    assert link.latency == pytest.approx(0.020)
    link.restore()
    assert not _degraded(link)
    assert link.latency == pytest.approx(0.010)
    assert link.bandwidth == pytest.approx(1e6)


def test_partition_drops_messages_and_fails_connects():
    env, net = _two_hosts()
    listener = net.host("b").listen(9000)
    result = {}

    def client():
        conn = yield from net.host("a").connect("b", 9000)
        conn.send(b"before")
        net.partition("a", "b")
        assert not net.reachable("a", "b")
        conn.send(b"lost-to-the-dark")
        try:
            yield from net.host("a").connect("b", 9000, timeout=1.0)
        except HostUnreachable:
            result["connect_failed_at"] = env.now
        net.heal("a", "b")
        conn.send(b"after-heal")

    def server():
        conn = yield from listener.accept()
        result["msgs"] = []
        for _ in range(2):
            msg = yield from conn.recv(timeout=30.0)
            result["msgs"].append(bytes(msg))

    env.process(client())
    env.process(server())
    env.run(until=40.0)
    # The partitioned send vanished; traffic resumed after heal.
    assert result["msgs"] == [b"before", b"after-heal"]
    assert net.dropped_messages == 1
    assert "connect_failed_at" in result


def test_isolation_cuts_a_host_from_everyone():
    env, net = _two_hosts()
    net.add_host("c")
    net.isolate("b")
    assert not net.reachable("a", "b")
    assert not net.reachable("c", "b")
    assert net.reachable("a", "c")
    assert net.reachable("b", "b")  # loopback survives
    assert sorted(net._isolated) == ["b"]
    net.rejoin("b")
    assert net.reachable("a", "b")


# -- injector mechanics on a real fabric -------------------------------------


def test_injector_validates_against_the_fabric():
    driver = FleetDriver(n_sites=2, queue_slots=2)
    injector = FaultInjector(driver)
    with pytest.raises(ChaosError, match="only 2 sites"):
        injector.install(FaultSchedule([SiteOutage(at=1.0, site=7)]))
    with pytest.raises(ChaosError, match="no broker pool"):
        injector.install(FaultSchedule([VBrokerCrash(at=1.0, broker=0)]))
    with pytest.raises(ChaosError, match="shards"):
        injector.install(FaultSchedule([RegistryShardLoss(at=1.0, shard=9)]))
    with pytest.raises(ChaosError, match="unknown host"):
        injector.install(FaultSchedule([FirewallLockdown(at=1.0, host="zz")]))


def test_site_outage_applies_and_reverts_cleanly():
    driver = FleetDriver(n_sites=2, queue_slots=2)
    env = driver.env
    injector = FaultInjector(driver)
    site = driver.sites[0]
    before = dict(driver.net.host(site.hpc_name).listeners)
    assert before  # the gateway is listening
    injector.install(
        FaultSchedule([SiteOutage(at=1.0, site=0, duration=2.0)])
    )
    env.run(until=1.5)
    assert driver.net.host(site.hpc_name).listeners == {}
    assert not driver.net.reachable(site.svc_name, "manchester")
    env.run(until=4.0)
    # Revert re-seats the same listener objects and rejoins the WAN.
    assert driver.net.host(site.hpc_name).listeners == before
    assert driver.net.reachable(site.svc_name, "manchester")
    phases = [phase for _, phase, _ in injector.log]
    assert phases == ["apply", "revert"]


def test_container_crash_severs_and_restart_serves_again():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    env = driver.env
    container = driver.sites[0].container
    assert container.alive and not container.dead
    injector = FaultInjector(driver)
    injector.install(
        FaultSchedule([ContainerCrash(at=1.0, site=0, duration=2.0)])
    )
    env.run(until=1.5)
    assert container.dead
    env.run(until=4.0)
    assert container.alive
    # A session launched after the heal completes normally.
    from repro.fleet.spec import ScenarioSpec

    done = driver.admit(ScenarioSpec(
        name="post-heal", duration=2.0, cadence=0.5, participants=1,
    ))
    env.run(until=40.0)
    assert done._ok
    assert driver.telemetry.sessions["post-heal"].completed


def test_slow_node_degrades_and_heals_every_touching_link():
    driver = FleetDriver(n_sites=2, queue_slots=2)
    injector = FaultInjector(driver)
    site = driver.sites[1]
    injector.install(
        FaultSchedule([SlowNode(at=1.0, site=1, factor=4.0, duration=2.0)])
    )
    driver.env.run(until=1.5)
    touched = driver.net.links_of(site.svc_name)
    assert touched and all(_degraded(link) for link in touched)
    driver.env.run(until=4.0)
    assert not any(_degraded(link) for link in touched)


def test_random_windows_disjoint_across_many_seeds():
    """Regression: duration is bounded by the remaining slot, so the
    disjoint-windows guarantee holds for every seed, not most."""
    for seed in range(200):
        sched = FaultSchedule.random(
            seed=seed, horizon=20.0, n_faults=5, sites=2, shards=2,
            brokers=2, hosts=("h",), host_pairs=(("h", "g"),),
        )
        windows = sorted((f.at, f.at + (f.duration or 0.0)) for f in sched)
        for (_, e0), (s1, _) in zip(windows, windows[1:]):
            assert e0 <= s1, (seed, windows)


def test_overlapping_site_faults_compose_last_revert_heals():
    """Regression: an outage reverting mid-container-crash must not
    repair the ledger or re-seat the container listener early."""
    from repro.load import AdmissionController

    driver = FleetDriver(n_sites=2, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=4)
    injector = FaultInjector(driver, controller=ctl)
    injector.install(FaultSchedule([
        SiteOutage(at=1.0, site=0, duration=4.0),        # heals at 5
        ContainerCrash(at=2.0, site=0, duration=10.0),   # heals at 12
    ]))
    env = driver.env
    env.run(until=6.0)  # outage reverted, crash still active
    assert ctl.ledger.is_failed(0)
    assert driver.sites[0].container.dead
    # The non-container listeners (gateway, NJS) did come back.
    assert driver.net.host(driver.sites[0].hpc_name).listeners
    env.run(until=13.0)  # crash reverted: now everything heals
    assert not ctl.ledger.is_failed(0)
    assert driver.sites[0].container.alive


def test_outage_revert_does_not_resurrect_a_crashed_vbroker():
    """Regression: a permanent VBrokerCrash inside a SiteOutage window
    must stay dead when the outage revert re-seats the site's listeners,
    and its downstreams must be severed even though the outage already
    unseated the listener."""
    from repro.fleet import BrokerPool

    driver = FleetDriver(n_sites=2, queue_slots=2)
    pool = BrokerPool.build(
        driver.net, [s.svc_name for s in driver.sites], port=7100
    )
    injector = FaultInjector(driver, pool=pool)
    injector.install(FaultSchedule([
        SiteOutage(at=1.0, site=0, duration=4.0),
        VBrokerCrash(at=2.0, broker=0),  # permanent, mid-outage
    ]))
    driver.env.run(until=6.0)  # outage reverted at t=5
    assert not pool.brokers[0].alive
    assert pool.brokers[0].participants() == []
    assert [i for i, b in enumerate(pool.brokers) if b.alive] == [1]
    # The rest of the site did come back.
    assert driver.net.host(driver.sites[0].hpc_name).listeners
    assert pool.place("after-heal") is pool.brokers[1]


def test_container_conns_are_pruned_when_clients_disconnect():
    """Regression: _conns must track open connections, not history."""
    from repro.fleet.spec import ScenarioSpec

    driver = FleetDriver(n_sites=1, queue_slots=4)
    for i in range(4):
        driver.admit(ScenarioSpec(
            name=f"c{i}", duration=1.0, cadence=0.5, participants=1,
        ))
    driver.env.run(until=60.0)
    assert driver.telemetry.totals()["completed"] == 4
    assert driver.sites[0].container._conns == []


def test_overlapping_lockdowns_refcount_on_one_host():
    driver = FleetDriver(n_sites=1, queue_slots=2)
    injector = FaultInjector(driver)
    hpc = driver.sites[0].hpc_name
    injector.install(FaultSchedule([
        FirewallLockdown(at=1.0, host=hpc, duration=2.0),
        FirewallLockdown(at=2.0, host=hpc, duration=4.0),
    ]))
    driver.env.run(until=3.5)  # first lifted, second still active
    assert driver.net.host(hpc).firewall._pre_lockdown is not None
    driver.env.run(until=7.0)
    assert driver.net.host(hpc).firewall._pre_lockdown is None


def test_shard_loss_empties_exactly_one_shard():
    driver = FleetDriver(n_sites=1, registry_shards=3)
    reg = driver.sites[0].registry
    handles = [f"gsh://svc-0:8000/steer-{i}" for i in range(30)]
    for handle in handles:
        reg.publish(handle, {"type": "steering", "application": "x"})
    sizes_before = reg.shard_sizes()
    assert sum(sizes_before) == 30
    injector = FaultInjector(driver)
    injector.install(FaultSchedule([RegistryShardLoss(at=1.0, shard=1)]))
    driver.env.run(until=2.0)
    sizes_after = reg.shard_sizes()
    assert sizes_after[1] == 0
    assert sizes_after[0] == sizes_before[0]
    assert sizes_after[2] == sizes_before[2]
    # Surviving entries still look up through the front-end.
    for handle in handles:
        from repro.fleet.registry_fed import shard_index

        if shard_index(handle, 3) != 1:
            assert reg.lookup(handle)["type"] == "steering"


def test_lockdown_fault_blocks_new_sessions_then_lifts():
    driver = FleetDriver(n_sites=1, queue_slots=4)
    injector = FaultInjector(driver)
    hpc = driver.sites[0].hpc_name
    injector.install(FaultSchedule([
        FirewallLockdown(at=0.5, host=hpc, duration=30.0),
    ]))
    from repro.fleet.spec import ScenarioSpec

    blocked = driver.admit(ScenarioSpec(
        name="blocked", duration=2.0, cadence=0.5, participants=1,
        admission_offset=1.0,
    ))
    driver.env.run(until=20.0)
    assert driver.net.host(hpc).firewall._pre_lockdown is not None
    tel = driver.telemetry.sessions["blocked"]
    assert blocked._ok and not tel.completed
    assert "FirewallBlocked" in tel.failure
    driver.env.run(until=45.0)
    assert driver.net.host(hpc).firewall._pre_lockdown is None


def test_harness_smoke_keeps_invariants_on_a_healthy_run():
    from repro.load import AdmissionController, TraceArrivals
    from repro.fleet.spec import ScenarioSpec

    driver = FleetDriver(n_sites=2, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=8)
    world = ChaosHarness(driver, ctl)
    proto = ScenarioSpec(name="p", duration=2.0, cadence=0.5, participants=1)
    report = ctl.run(
        TraceArrivals([0.0, 0.5, 1.0], suite=[proto], prefix="h"),
        until=40.0,
    )
    verdict = world.verdict(report)
    assert verdict["invariant_violations"] == 0
    assert verdict["faults_applied"] == 0
    assert world.monitor.sweeps > 10
    assert report.completed == 3
