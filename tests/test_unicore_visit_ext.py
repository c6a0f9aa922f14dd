"""Integration tests for the VISIT-UNICORE extension (section 3.3).

The scenario: a steered application runs on the HPC target behind a
single-port firewall; it speaks ordinary VISIT to a local proxy; remote
participants poll through the UNICORE gateway; the first polling
participant is master and answers the simulation's steering requests.
"""

import numpy as np
import pytest

from repro.des import Environment
from repro.net import Firewall, Network
from repro.unicore import (
    Certificate,
    Gateway,
    NetworkJobSupervisor,
    TargetSystemInterface,
    UnicoreClient,
    UserIdentity,
)
from repro.unicore.security import TrustStore
from repro.unicore.visit_ext import VisitProxyServer, VisitUnicorePlugin
from repro.visit import VisitClient

GATEWAY_PORT = 4433
PROXY_PORT = 5500
TAG_DATA = 1
TAG_STEER = 2


def build(poll_interval=0.2, extra_users=()):
    env = Environment()
    net = Network(env)
    net.add_host("laptop")
    net.add_host("hpc", firewall=Firewall.single_port(GATEWAY_PORT))
    net.add_link("laptop", "hpc", latency=0.01, bandwidth=10e6 / 8)
    for name in extra_users:
        net.add_host(name)
        net.add_link(name, "hpc", latency=0.02, bandwidth=10e6 / 8)

    trust = TrustStore({"CA"})
    gw = Gateway(net.host("hpc"), GATEWAY_PORT, trust=trust)
    tsi = TargetSystemInterface(net.host("hpc"))
    njs = NetworkJobSupervisor(net.host("hpc"), 9000, "JUELICH", tsi)
    gw.register_vsite("JUELICH", "hpc", 9000)
    gw.start()
    njs.start()

    proxy = VisitProxyServer(net.host("hpc"), PROXY_PORT, password="pw")
    proxy.start()
    tsi.visit_proxy = proxy

    def make_plugin(host_name, plugin_name):
        ident = UserIdentity(Certificate(f"CN={plugin_name}", "CA"), plugin_name)
        uc = UnicoreClient(net.host(host_name), ident, "hpc", GATEWAY_PORT)
        return uc, VisitUnicorePlugin(uc, "JUELICH", plugin_name,
                                      poll_interval=poll_interval)

    return env, net, gw, proxy, make_plugin


def test_unmodified_visit_app_steered_through_gateway():
    env, net, gw, proxy, make_plugin = build()
    uc, plugin = make_plugin("laptop", "john")
    steer_value = {"v": 1.0}
    plugin.provide(TAG_STEER, lambda: steer_value["v"])

    sim_client = VisitClient(net.host("hpc"), "hpc", PROXY_PORT, "pw", name="pepc")
    log = {"params": [], "sent": 0}

    def simulation():
        ok = yield from sim_client.connect(timeout=1.0)
        assert ok
        for step in range(8):
            yield env.timeout(0.1)  # compute
            yield from sim_client.send(TAG_DATA, {"step": step,
                                                  "x": np.arange(4, dtype=np.float32)})
            log["sent"] += 1
            ok, val = yield from sim_client.request(TAG_STEER, timeout=1.0)
            if ok:
                log["params"].append(val)

    def user():
        yield from uc.connect()
        plugin.start()
        yield env.timeout(1.5)
        steer_value["v"] = 42.0  # the user moves the steering slider
        yield env.timeout(2.0)
        plugin.stop()

    env.process(simulation())
    env.process(user())
    env.run(until=10.0)

    # Samples reached the remote participant through the single port.
    assert len(plugin.received[TAG_DATA]) == log["sent"] > 0
    # Steering answers arrived, and the slider change is visible.
    assert len(log["params"]) >= 4
    assert 1.0 in log["params"] and 42.0 in log["params"]
    # The app itself never authenticated to UNICORE; the user did.
    assert gw.sessions_opened == 1


def test_poll_latency_dominated_by_interval():
    """Sample delivery latency ~ poll_interval/2 .. poll_interval."""
    results = {}
    for interval in (0.1, 0.8):
        env, net, gw, proxy, make_plugin = build(poll_interval=interval)
        uc, plugin = make_plugin("laptop", "john")
        sim_client = VisitClient(net.host("hpc"), "hpc", PROXY_PORT, "pw")

        def simulation():
            yield from sim_client.connect(timeout=1.0)
            for step in range(30):
                yield env.timeout(0.13)
                yield from sim_client.send(TAG_DATA, step)

        def user():
            yield from uc.connect()
            plugin.start()

        env.process(simulation())
        env.process(user())
        env.run(until=6.0)
        assert plugin.delivery_latencies, f"no samples at interval {interval}"
        results[interval] = float(np.mean(plugin.delivery_latencies))
    assert results[0.8] > results[0.1] * 2
    assert results[0.1] < 0.25


def test_collaboration_master_only_steering_in_proxy():
    env, net, gw, proxy, make_plugin = build(
        poll_interval=0.2, extra_users=("site-b",)
    )
    uc_a, plugin_a = make_plugin("laptop", "alice")
    uc_b, plugin_b = make_plugin("site-b", "bob")
    plugin_a.provide(TAG_STEER, lambda: "from-alice")
    plugin_b.provide(TAG_STEER, lambda: "from-bob")

    sim_client = VisitClient(net.host("hpc"), "hpc", PROXY_PORT, "pw")
    answers = []

    def simulation():
        yield from sim_client.connect(timeout=1.0)
        for _ in range(10):
            yield env.timeout(0.3)
            yield from sim_client.send(TAG_DATA, b"frame")
            ok, val = yield from sim_client.request(TAG_STEER, timeout=1.5)
            if ok:
                answers.append(val)

    def users():
        yield from uc_a.connect()
        plugin_a.start()
        yield from uc_b.connect()
        plugin_b.start()
        yield env.timeout(2.0)
        proxy.pass_master("bob")

    env.process(simulation())
    env.process(users())
    env.run(until=8.0)

    # Everyone saw all the data (fan-out with per-participant cursors).
    assert len(plugin_a.received[TAG_DATA]) == len(plugin_b.received[TAG_DATA]) > 0
    # Steering answers switched with the master role.
    assert "from-alice" in answers and "from-bob" in answers
    assert answers.index("from-alice") < answers.index("from-bob")
    assert list(proxy._token.members) == ["alice", "bob"]


def test_unauthenticated_poll_rejected():
    env, net, gw, proxy, make_plugin = build()
    assert proxy.handle_poll(subject="", client="x", responses=[])["ok"] is False


def test_sim_request_times_out_when_no_participants():
    """No steerer polling: the simulation's request fails at its own
    timeout, and the simulation keeps going (VISIT guarantee preserved
    through the proxy)."""
    env, net, gw, proxy, make_plugin = build()
    sim_client = VisitClient(net.host("hpc"), "hpc", PROXY_PORT, "pw")
    log = []

    def simulation():
        yield from sim_client.connect(timeout=1.0)
        for step in range(5):
            t0 = env.now
            ok, _ = yield from sim_client.request(TAG_STEER, timeout=0.2)
            log.append((step, ok, env.now - t0))
            yield env.timeout(0.05)

    env.process(simulation())
    env.run()
    assert len(log) == 5
    assert all(not ok for _, ok, _ in log)
    assert all(elapsed == pytest.approx(0.2, abs=1e-6) for _, _, elapsed in log)


def test_malformed_poll_responses_refused_and_the_proxy_lives():
    """A master's poll whose ``responses`` is not a list of ``{tag, seq,
    payload}`` dicts is refused like any malformed NJS request; it used
    to end the world with a TypeError (or AttributeError once a request
    was pending)."""
    env, net, gw, proxy, make_plugin = build()
    uc, _plugin = make_plugin("laptop", "mallory")
    sim_client = VisitClient(net.host("hpc"), "hpc", PROXY_PORT, "pw")
    hostile = (
        5,
        "abc",
        [7],
        [{"tag": TAG_STEER}],
        [{"tag": [TAG_STEER], "seq": 1, "payload": 0}],
        [{"tag": TAG_STEER, "seq": 1, "payload": 0, "extra": 1}],
        [{"tag": True, "seq": 1, "payload": 0}],  # a bool is not an int
    )
    replies, answers = [], []

    def poll(responses, client="mallory"):
        return uc.request({"op": "proxy_poll", "vsite": "JUELICH",
                           "client": client, "responses": responses})

    def simulation():
        yield from sim_client.connect(timeout=1.0)
        answers.append((yield from sim_client.request(TAG_STEER, timeout=5.0)))

    def user():
        yield from uc.connect()
        yield env.timeout(0.5)  # the simulation's request is pending now
        for responses in hostile:
            replies.append((yield from poll(responses)))
        replies.append((yield from poll([], client=["mallory"])))
        good = yield from poll([])
        seq = good["requests"][0]["seq"]
        replies.append((yield from poll([{"tag": TAG_STEER, "seq": seq, "payload": 9}])))

    env.process(simulation())
    env.process(user())
    env.run()
    assert [r["ok"] for r in replies] == [False] * (len(hostile) + 1) + [True]
    assert all("malformed" in r["error"] for r in replies[:-1])
    assert proxy._token.holder == "mallory"
    assert answers == [(True, 9)]
