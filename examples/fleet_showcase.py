#!/usr/bin/env python
"""The session fleet: many collaborative steering sessions at once.

Two demonstrations of `repro.fleet`:

1. A 12-session fleet sweeping the paper's four applications (LB3D,
   PEPC, building climatization, crowd flow) across the 2003-era link
   classes, each session running the full UNICORE -> OGSA -> registry ->
   steer workflow, with staggered admission and fleet-wide telemetry.
2. The collaborative layer: a pool of VISIT vbrokers with least-loaded
   placement, and the master token surviving the death of the master
   visualization (section 3.3's cooperative steering, fleet-hardened).

Run:  python examples/fleet_showcase.py
"""

import time

from repro.des import Environment
from repro.fleet import BrokerPool, FleetDriver, fleet_of, sweep_scenarios
from repro.net import Network
from repro.visit import VisitClient, VisitServer
from repro.workloads import CAMPUS, SUPERJANET, link_with_profile

TAG_DATA, TAG_PARAMS = 1, 2


def run_fleet() -> None:
    print("=" * 72)
    print("1. A 12-session fleet across the sc03 showfloor fabric")
    print("=" * 72)
    suite = sweep_scenarios(duration=4.0, cadence=0.5)[:12]
    specs = fleet_of(12, suite=suite, stagger=0.3)
    for spec in specs[:4]:
        print(f"  spec {spec.name}: sim={spec.sim} profile={spec.profile} "
              f"cadence={spec.cadence}s x {spec.n_ops} ops")
    print("  ...")
    t0 = time.perf_counter()
    driver = FleetDriver(specs, n_sites=4)
    report = driver.run()
    report.wall_seconds = time.perf_counter() - t0
    print()
    print(report.render(per_session=True))
    print()
    print(f"registry: {driver.sites[0].registry.entry_count} handles over "
          f"{len(driver.shards)} shards {driver.sites[0].registry.shard_sizes()}")
    assert report.completed == len(specs), "fleet did not complete"


def run_broker_pool() -> None:
    print()
    print("=" * 72)
    print("2. Broker pool: placement + master-token failover")
    print("=" * 72)
    env = Environment()
    net = Network(env)
    for name in ("broker-0", "broker-1", "sim-host"):
        net.add_host(name)
    servers = {}
    for i in range(3):
        name = f"viz-{i}"
        net.add_host(name)
        for b in ("broker-0", "broker-1"):
            link_with_profile(net, b, name, SUPERJANET)
        server = VisitServer(net.host(name), 6000, password="fleet", name=name)
        server.provide(TAG_PARAMS, lambda n=name: f"params:{n}")
        server.start()
        servers[name] = server
    link_with_profile(net, "sim-host", "broker-0", CAMPUS)
    link_with_profile(net, "sim-host", "broker-1", CAMPUS)

    pool = BrokerPool.build(net, ["broker-0", "broker-1"], password="fleet")
    for session in ("lb3d-collab", "pepc-collab"):
        broker = pool.place(session)
        print(f"  session {session!r} -> broker on {broker.host.name}")

    def scenario():
        for viz in ("viz-0", "viz-1", "viz-2"):
            yield from pool.add_visualization("lb3d-collab", viz, viz, 6000)
        broker = pool.broker_for("lb3d-collab")
        print(f"  [{env.now:6.3f}s] participants={broker.participants()} "
              f"master={broker.master!r}")

        sim = VisitClient(net.host("sim-host"), broker.host.name,
                          broker.port, "fleet")
        yield from sim.connect(timeout=2.0)
        yield from sim.send(TAG_DATA, b"sample-0")
        ok, value = yield from sim.request(TAG_PARAMS, timeout=5.0)
        print(f"  [{env.now:6.3f}s] steer request answered by master: "
              f"{value!r} (ok={ok})")

        # The master visualization dies mid-session.
        broker._token.members[broker.master].close()
        new_master = pool.ensure_master("lb3d-collab")
        print(f"  [{env.now:6.3f}s] master died -> token moved to "
              f"{new_master!r}, participants={broker.participants()}")
        ok, value = yield from sim.request(TAG_PARAMS, timeout=5.0)
        print(f"  [{env.now:6.3f}s] steer request after failover: "
              f"{value!r} (ok={ok})")
        assert ok and value == f"params:{new_master}"

    env.process(scenario())
    env.run(until=30.0)
    for s in pool.stats():
        print(f"  broker {s['host']}:{s['port']}: sessions={s['sessions']} "
              f"participants={s['participants']} master={s['master']!r} "
              f"fanout={s['fanout_messages']}")


def main() -> None:
    run_fleet()
    run_broker_pool()
    print("\nfleet showcase complete.")


if __name__ == "__main__":
    main()
