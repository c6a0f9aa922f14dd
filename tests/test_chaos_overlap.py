"""Overlapping faults compose, as a property, for every kind that holds.

Random faults over a 2-site world with a controller and a 2-broker pool
are applied and reverted in any interleaving.  After every step the
fabric must match a reference computed from the set of active faults
alone: a target stays faulted while any fault holds it, a link runs at
the worst active factors, and after the last revert the fabric is what
it was before the first apply.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ContainerCrash,
    FaultInjector,
    FirewallLockdown,
    LinkDegrade,
    Partition,
    SiteOutage,
    SlowNode,
    VBrokerCrash,
)
from repro.fleet import BrokerPool, FleetDriver
from repro.load import AdmissionController

PAIRS = [("hpc-0", "svc-0"), ("hpc-1", "svc-1"), ("svc-0", "svc-1")]
SITE = st.integers(0, 1)
FAULTS = st.one_of(
    st.builds(
        lambda pair, lat, bw: LinkDegrade(at=0.0, a=pair[0], b=pair[1],
                                          latency_factor=lat, bandwidth_factor=bw),
        st.sampled_from(PAIRS), st.sampled_from([2.0, 10.0]), st.sampled_from([0.5, 0.1]),
    ),
    st.builds(lambda pair: Partition(at=0.0, a=pair[0], b=pair[1]), st.sampled_from(PAIRS)),
    st.builds(lambda s: SiteOutage(at=0.0, site=s), SITE),
    st.builds(lambda s: ContainerCrash(at=0.0, site=s), SITE),
    st.builds(lambda b: VBrokerCrash(at=0.0, broker=b), SITE),
    st.builds(lambda h: FirewallLockdown(at=0.0, host=h),
              st.sampled_from(["hpc-0", "svc-0", "hpc-1"])),
    st.builds(lambda s, f: SlowNode(at=0.0, site=s, factor=f), SITE,
              st.sampled_from([4.0, 8.0])),
)


def world():
    driver = FleetDriver(n_sites=2, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=4)
    pool = BrokerPool.build(driver.net, [s.svc_name for s in driver.sites], port=7100)
    for a, b in PAIRS:  # every link a fault can touch exists up front
        driver.net.link(a, b)
        driver.net.link(b, a)
    return driver, ctl, pool, FaultInjector(driver, controller=ctl, pool=pool)


def site_hosts(driver, index):
    site = driver.sites[index]
    return {site.hpc_name, site.svc_name}


def fabric(driver, ctl, pool):
    """Everything a fault can hold, as comparable data."""
    net = driver.net
    return {
        "isolated": sorted(net._isolated),
        "partitions": sorted(tuple(sorted(p)) for p in net._partitions),
        "links": {key: (link.latency, link.bandwidth) for key, link in net._links.items()},
        "containers": [site.container.alive for site in driver.sites],
        "brokers": [broker.alive for broker in pool.brokers],
        "failed": [ctl.ledger.is_failed(i) for i in ctl.ledger.sites()],
        "locked": sorted(
            name for name, host in net.hosts.items() if host.firewall._pre_lockdown is not None
        ),
        "ports": {name: sorted(host.listeners) for name, host in net.hosts.items()},
    }


def reference(driver, ctl, pool, active, healthy):
    """What the fabric must look like with exactly ``active`` applied."""
    net = driver.net
    down = {f.site for f in active if isinstance(f, SiteOutage)}
    crashed = {f.site for f in active if isinstance(f, ContainerCrash)}
    brokers = {f.broker for f in active if isinstance(f, VBrokerCrash)}
    locked = {f.host for f in active if isinstance(f, FirewallLockdown)}
    isolated = set().union(*(site_hosts(driver, s) for s in down))

    links = {}
    for (src, dst), link in net._links.items():
        factors = [(f.latency_factor, f.bandwidth_factor) for f in active
                   if isinstance(f, LinkDegrade) and {f.a, f.b} == {src, dst}]
        factors += [(f.factor, 1.0 / f.factor) for f in active if isinstance(f, SlowNode)
                    and site_hosts(driver, f.site) & {src, dst}]
        if factors:
            lat = max(lat for lat, _ in factors)
            bw = min(bw for _, bw in factors)
            links[(src, dst)] = (link.base_latency * lat, link.base_bandwidth * bw)
        else:
            links[(src, dst)] = (link.base_latency, link.base_bandwidth)

    held_down = {(driver.sites[s].svc_name, driver.sites[s].container.port) for s in crashed}
    held_down |= {(pool.brokers[b].host.name, pool.brokers[b].port) for b in brokers}
    ports = {
        name: [] if name in isolated else [p for p in seated if (name, p) not in held_down]
        for name, seated in healthy["ports"].items()
    }
    return {
        "isolated": sorted(isolated),
        "partitions": sorted({tuple(sorted((f.a, f.b))) for f in active
                              if isinstance(f, Partition)}),
        "links": links,
        "containers": [i not in crashed and i not in down for i in range(2)],
        "brokers": [b not in brokers and b not in down for b in range(2)],
        "failed": [i in down or i in crashed or bool(site_hosts(driver, i) & locked)
                   for i in range(2)],
        "locked": sorted(locked),
        "ports": ports,
    }


@settings(max_examples=120, deadline=None)
@given(faults=st.lists(FAULTS, min_size=1, max_size=6), data=st.data())
def test_overlapping_faults_compose_for_every_kind(faults, data):
    driver, ctl, pool, injector = world()
    healthy = fabric(driver, ctl, pool)
    # Any interleaving: a fault's first step applies it, its second reverts it.
    steps = data.draw(st.permutations([i for i in range(len(faults)) for _ in "ar"]))
    active = []
    for i in steps:
        fault = faults[i]
        if any(f is fault for f in active):
            injector.revert(fault)
            active = [f for f in active if f is not fault]
        else:
            injector.apply(fault)
            active.append(fault)
        assert fabric(driver, ctl, pool) == reference(driver, ctl, pool, active, healthy)
    assert fabric(driver, ctl, pool) == healthy
