"""Broker pool: least-loaded placement and master-token failover."""

import pytest

from repro.des import Environment
from repro.errors import VisitError
from repro.fleet import BrokerPool
from repro.net import Network
from repro.visit import VisitServer
from repro.workloads import CAMPUS, link_with_profile

TAG_PARAMS = 2


def _world(n_broker_hosts=2, n_viz=4):
    env = Environment()
    net = Network(env)
    broker_hosts = []
    for i in range(n_broker_hosts):
        name = f"broker-{i}"
        net.add_host(name)
        broker_hosts.append(name)
    servers = {}
    for i in range(n_viz):
        name = f"viz-{i}"
        net.add_host(name)
        for b in broker_hosts:
            link_with_profile(net, b, name, CAMPUS)
        server = VisitServer(net.host(name), 6000, password="fleet", name=name)
        server.provide(TAG_PARAMS, lambda n=name: f"params:{n}")
        server.start()
        servers[name] = server
    pool = BrokerPool.build(net, broker_hosts, password="fleet")
    return env, net, pool, servers


def test_pool_requires_brokers():
    with pytest.raises(VisitError):
        BrokerPool([])


def test_least_loaded_placement_round_robins():
    env, net, pool, servers = _world(n_broker_hosts=2)
    b0 = pool.place("sess-a")
    b1 = pool.place("sess-b")
    b2 = pool.place("sess-c")
    assert b0 is not b1  # second session avoids the loaded broker
    assert b2 in (b0, b1)
    assert pool._placement["sess-a"] != pool._placement["sess-b"]
    # Placement is stable on repeat lookups.
    assert pool.place("sess-a") is b0
    assert pool.broker_for("sess-a") is b0
    pool.release("sess-a")
    with pytest.raises(VisitError):
        pool.broker_for("sess-a")


def test_release_rebalances_future_placements():
    env, net, pool, servers = _world(n_broker_hosts=2)
    pool.place("s1")
    pool.place("s2")
    pool.release("s1")
    # The freed broker is least-loaded again.
    assert pool._placement["s2"] != pool._placement.get("s3") or True
    b3 = pool.place("s3")
    assert pool._placement["s3"] != pool._placement["s2"]
    assert b3 is pool.broker_for("s3")


def test_master_failover_moves_token_to_live_participant():
    env, net, pool, servers = _world(n_broker_hosts=1, n_viz=3)
    pool.place("sess")
    done = {}

    def scenario():
        yield from pool.add_visualization("sess", "viz-0", "viz-0", 6000)
        yield from pool.add_visualization("sess", "viz-1", "viz-1", 6000)
        yield from pool.add_visualization("sess", "viz-2", "viz-2", 6000)
        broker = pool.broker_for("sess")
        done["first_master"] = broker.master
        # The master's connection dies (participant crash / site drop).
        broker._token.members["viz-0"].close()
        done["repaired_master"] = pool.ensure_master("sess")
        done["participants"] = broker.participants()
        # A healthy pool is a no-op repair.
        done["stable_master"] = pool.ensure_master("sess")

    env.process(scenario())
    env.run(until=10.0)
    assert done["first_master"] == "viz-0"  # first participant holds the token
    assert done["repaired_master"] == "viz-1"  # token moved, not stalled
    assert done["participants"] == ["viz-1", "viz-2"]
    assert done["stable_master"] == "viz-1"


def test_failover_with_no_survivors_returns_none():
    env, net, pool, servers = _world(n_broker_hosts=1, n_viz=2)
    pool.place("sess")
    done = {}

    def scenario():
        yield from pool.add_visualization("sess", "viz-0", "viz-0", 6000)
        broker = pool.broker_for("sess")
        broker._token.members["viz-0"].close()
        done["master"] = pool.ensure_master("sess")

    env.process(scenario())
    env.run(until=10.0)
    assert done["master"] is None


def test_place_skips_dead_brokers():
    env, net, pool, servers = _world(n_broker_hosts=3)
    # The least-loaded (first) broker's host crashes: listener closes.
    pool.brokers[0].stop()
    assert not pool.brokers[0].alive
    assert pool.brokers[1].alive and pool.brokers[2].alive
    b = pool.place("sess-live")
    assert b is not pool.brokers[0]
    # Sessions placed before a crash keep their (now useless) placement
    # on repeat lookups rather than silently moving.
    pool._placement["sess-old"] = 0
    assert pool.place("sess-old") is pool.brokers[0]


def test_place_prunes_dead_participants_before_load_compare():
    env, net, pool, servers = _world(n_broker_hosts=2, n_viz=2)
    done = {}

    def scenario():
        pool.place("a")  # -> broker 0 (1 session)
        # Load broker 1 with two dead participants: raw participant
        # count would make it look busier than broker 0.
        yield from pool.brokers[1].add_visualization("viz-0", "viz-0", 6000)
        yield from pool.brokers[1].add_visualization("viz-1", "viz-1", 6000)
        pool.brokers[1]._token.members["viz-0"].close()
        pool.brokers[1]._token.members["viz-1"].close()
        done["b"] = pool.place("b")

    env.process(scenario())
    env.run(until=10.0)
    # After pruning, broker 1 has 0 sessions + 0 live participants and
    # wins over broker 0's 1 session.
    assert done["b"] is pool.brokers[1]
    assert pool.brokers[1].participants() == []


def test_place_raises_when_every_broker_is_dead():
    env, net, pool, servers = _world(n_broker_hosts=2)
    for broker in pool.brokers:
        broker.stop()
    with pytest.raises(VisitError) as exc:
        pool.place("nowhere-to-go")
    assert "all 2 vbrokers" in str(exc.value)
    # The failed placement left no stale bookkeeping behind.
    assert "nowhere-to-go" not in pool._placement


def test_stop_drops_downstreams_and_moves_no_token():
    env, net, pool, servers = _world(n_broker_hosts=1, n_viz=2)

    def scenario():
        yield from pool.brokers[0].add_visualization("viz-0", "viz-0", 6000)
        yield from pool.brokers[0].add_visualization("viz-1", "viz-1", 6000)

    env.process(scenario())
    env.run(until=10.0)
    broker = pool.brokers[0]
    assert broker.alive and broker.master == "viz-0"
    broker.stop()
    assert not broker.alive
    assert broker.participants() == [] and broker.master is None


def test_stats_reflect_assignments():
    env, net, pool, servers = _world(n_broker_hosts=2)
    pool.place("a")
    pool.place("b")
    stats = pool.stats()
    assert sorted(s["sessions"] for s in stats) == [1, 1]
    assert {s["host"] for s in stats} == {"broker-0", "broker-1"}
