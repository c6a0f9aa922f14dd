"""VISIT toolkit tests: handshake, tagged transfer, timeouts, vbroker."""

import numpy as np
import pytest

from repro.des import Environment
from repro.errors import ProtocolError
from repro.net import Network
from repro.visit import (
    DataSend,
    VBroker,
    VisitClient,
    VisitServer,
    decode_visit,
    encode_visit,
)

TAG_PARTICLES = 1
TAG_PARAMS = 2


def grid(extra_hosts=()):
    env = Environment()
    net = Network(env)
    net.add_host("sim.juelich.de")
    net.add_host("viz.juelich.de")
    net.add_link("sim.juelich.de", "viz.juelich.de", latency=0.002, bandwidth=100e6 / 8)
    for h in extra_hosts:
        net.add_host(h)
        net.add_link("sim.juelich.de", h, latency=0.01, bandwidth=10e6 / 8)
    return env, net


def test_visit_message_roundtrip():
    msg = DataSend(tag=7, payload={"x": np.arange(4, dtype=np.float64)})
    out = decode_visit(encode_visit(msg, ">"))
    assert out.tag == 7 and out.seq == 0
    np.testing.assert_array_equal(out.payload["x"], np.arange(4, dtype=np.float64))
    assert "struct" in out.description


def test_visit_decode_garbage():
    from repro.wire import encode

    with pytest.raises(ProtocolError):
        decode_visit(encode({"no": "kind"}))
    with pytest.raises(ProtocolError):
        decode_visit(encode({"_kind": "Bogus"}))
    with pytest.raises(ProtocolError):  # a bool is not an int
        decode_visit(encode({"_kind": "DataRequest", "tag": True, "seq": False}))
    with pytest.raises(ProtocolError):
        encode_visit(object())


def test_connect_and_send_receive():
    env, net = grid()
    server = VisitServer(net.host("viz.juelich.de"), 5000, password="pw")
    server.provide(TAG_PARAMS, lambda: {"beam_charge": 2.0})
    server.start()
    client = VisitClient(net.host("sim.juelich.de"), "viz.juelich.de", 5000, "pw")
    result = {}

    def sim():
        ok = yield from client.connect(timeout=1.0)
        result["connected"] = ok
        ok = yield from client.send(TAG_PARTICLES, np.zeros(100, dtype=np.float32))
        result["sent"] = ok
        ok, params = yield from client.request(TAG_PARAMS, timeout=1.0)
        result["params"] = (ok, params)
        client.close()

    env.process(sim())
    env.run()
    assert result["connected"] and result["sent"]
    assert result["params"] == (True, {"beam_charge": 2.0})
    assert len(server.received[TAG_PARTICLES]) == 1
    assert server.clients_served == 1


def test_wrong_password_rejected():
    env, net = grid()
    server = VisitServer(net.host("viz.juelich.de"), 5000, password="secret")
    server.start()
    client = VisitClient(net.host("sim.juelich.de"), "viz.juelich.de", 5000, "wrong")
    result = {}

    def sim():
        ok = yield from client.connect(timeout=1.0)
        result["connected"] = ok

    env.process(sim())
    env.run()
    assert result["connected"] is False
    assert server.auth_failures == 1
    assert "password" in client.last_error


def test_connect_to_absent_server_fails_within_timeout():
    env, net = grid()
    client = VisitClient(net.host("sim.juelich.de"), "viz.juelich.de", 5999, "pw")
    result = {}

    def sim():
        ok = yield from client.connect(timeout=0.5)
        result["connected"] = (ok, env.now)

    env.process(sim())
    env.run()
    ok, t = result["connected"]
    assert not ok and t <= 0.5 + 1e-9


def test_request_timeout_on_slow_server_is_bounded():
    """The core VISIT guarantee: the op fails at the user timeout."""
    env, net = grid()
    server = VisitServer(
        net.host("viz.juelich.de"), 5000, password="pw", response_delay=10.0
    )
    server.provide(TAG_PARAMS, lambda: 1)
    server.start()
    client = VisitClient(net.host("sim.juelich.de"), "viz.juelich.de", 5000, "pw")
    result = {}

    def sim():
        yield from client.connect(timeout=1.0)
        t0 = env.now
        ok, _ = yield from client.request(TAG_PARAMS, timeout=0.25)
        result["req"] = (ok, env.now - t0)

    env.process(sim())
    env.run(until=5.0)
    ok, elapsed = result["req"]
    assert not ok
    assert elapsed == pytest.approx(0.25, abs=1e-6)
    assert "timed out" in client.last_error


def test_dead_server_does_not_stall_simulation():
    """Kill the visualization mid-run; the simulation keeps stepping and
    every VISIT op stays bounded — the design goal of section 3.2."""
    env, net = grid()
    server = VisitServer(net.host("viz.juelich.de"), 5000, password="pw")
    server.provide(TAG_PARAMS, lambda: 0.5)
    server.start()
    client = VisitClient(net.host("sim.juelich.de"), "viz.juelich.de", 5000, "pw")
    steps_done = []

    def sim():
        yield from client.connect(timeout=1.0)
        for step in range(20):
            if step == 5:
                server.kill()
            yield env.timeout(0.01)  # the compute step
            yield from client.send(TAG_PARTICLES, np.zeros(10))
            ok, _ = yield from client.request(TAG_PARAMS, timeout=0.05)
            steps_done.append((step, ok, env.now))

    env.process(sim())
    env.run()
    assert len(steps_done) == 20  # every step completed
    # After the kill, requests fail but cost at most the 0.05 timeout.
    post_kill = [s for s in steps_done if s[0] >= 5]
    assert all(not ok for _, ok, _ in post_kill)
    total_time = steps_done[-1][2]
    assert total_time <= 20 * (0.01 + 0.05) + 1.0


def test_stale_response_skipped_after_timeout():
    """A response arriving after its request timed out must not be
    mistaken for the answer to the next request."""
    env, net = grid()
    server = VisitServer(net.host("viz.juelich.de"), 5000, password="pw")
    server.provide(TAG_PARAMS, lambda: "fresh")
    server.start()
    client = VisitClient(net.host("sim.juelich.de"), "viz.juelich.de", 5000, "pw")
    # First request: server is slow; second: fast.
    result = {}

    def sim():
        yield from client.connect(timeout=1.0)
        server.response_delay = 0.2
        ok1, _ = yield from client.request(TAG_PARAMS, timeout=0.05)
        server.response_delay = 0.0
        ok2, val2 = yield from client.request(TAG_PARAMS, timeout=1.0)
        result["r"] = (ok1, ok2, val2)

    env.process(sim())
    env.run()
    ok1, ok2, val2 = result["r"]
    assert not ok1 and ok2 and val2 == "fresh"
    assert client.stats["requests_ok"] == 1


def test_server_side_byte_order_conversion():
    """Big-endian float64 arrays from the simulation arrive in native byte
    order at the renderer without the simulation doing any conversion."""
    env, net = grid()
    server = VisitServer(net.host("viz.juelich.de"), 5000, password="pw")
    server.start()
    client = VisitClient(
        net.host("sim.juelich.de"), "viz.juelich.de", 5000, "pw", byteorder=">"
    )

    def sim():
        yield from client.connect(timeout=1.0)
        yield from client.send(TAG_PARTICLES, {"pos": np.linspace(0, 1, 8)})

    env.process(sim())
    env.run()
    got = server.received[TAG_PARTICLES][-1]
    assert got["pos"].dtype == np.dtype("=f8")
    np.testing.assert_array_equal(got["pos"], np.linspace(0, 1, 8))


def test_send_before_connect_is_cheap_noop():
    env, net = grid()
    client = VisitClient(net.host("sim.juelich.de"), "viz.juelich.de", 5000, "pw")
    result = {}

    def sim():
        t0 = env.now
        ok = yield from client.send(TAG_PARTICLES, np.zeros(1000))
        result["send"] = (ok, env.now - t0)

    env.process(sim())
    env.run()
    assert result["send"] == (False, 0.0)
    assert client.stats["sends_dropped"] == 1


def test_vbroker_fanout_and_master_only_steering():
    env, net = grid(extra_hosts=("viz-a", "viz-b", "viz-c", "broker"))
    servers = {}
    for name in ("viz-a", "viz-b", "viz-c"):
        s = VisitServer(net.host(name), 6000, password="pw", name=name)
        s.provide(TAG_PARAMS, lambda n=name: f"params-from-{n}")
        s.start()
        servers[name] = s
    broker = VBroker(net.host("broker"), 7000, password="pw")
    broker.start()
    client = VisitClient(net.host("sim.juelich.de"), "broker", 7000, "pw")
    result = {}

    def scenario():
        for name in ("viz-a", "viz-b", "viz-c"):
            yield from broker.add_visualization(name, name, 6000)
        yield from client.connect(timeout=1.0)
        yield from client.send(TAG_PARTICLES, np.arange(5, dtype=np.int32))
        ok, val = yield from client.request(TAG_PARAMS, timeout=2.0)
        result["first"] = (ok, val)
        assert broker._token.pass_to("viz-b")
        ok, val = yield from client.request(TAG_PARAMS, timeout=2.0)
        result["second"] = (ok, val)

    env.process(scenario())
    env.run()
    # Fan-out: all three visualizations saw the same particle data.
    for name, s in servers.items():
        assert len(s.received[TAG_PARTICLES]) == 1, name
        np.testing.assert_array_equal(
            s.received[TAG_PARTICLES][0], np.arange(5, dtype=np.int32)
        )
    # Receive-requests reach only the master.
    assert result["first"] == (True, "params-from-viz-a")
    assert result["second"] == (True, "params-from-viz-b")
    assert broker.master == "viz-b"


def test_vbroker_no_participants_rejects_requests():
    env, net = grid(extra_hosts=("broker",))
    broker = VBroker(net.host("broker"), 7000, password="pw")
    broker.start()
    client = VisitClient(net.host("sim.juelich.de"), "broker", 7000, "pw")
    result = {}

    def scenario():
        yield from client.connect(timeout=1.0)
        ok, _ = yield from client.request(TAG_PARAMS, timeout=1.0)
        result["ok"] = ok

    env.process(scenario())
    env.run()
    assert result["ok"] is False


def test_vbroker_master_failover_on_remove():
    env, net = grid(extra_hosts=("viz-a", "viz-b", "broker"))
    for name in ("viz-a", "viz-b"):
        s = VisitServer(net.host(name), 6000, password="pw", name=name)
        s.provide(TAG_PARAMS, lambda n=name: n)
        s.start()
    broker = VBroker(net.host("broker"), 7000, password="pw")
    broker.start()
    done = {}

    def scenario():
        yield from broker.add_visualization("viz-a", "viz-a", 6000)
        yield from broker.add_visualization("viz-b", "viz-b", 6000)
        assert broker.master == "viz-a"
        broker.remove_visualization("viz-a")
        done["master"] = broker.master

    env.process(scenario())
    env.run()
    assert done["master"] == "viz-b"
