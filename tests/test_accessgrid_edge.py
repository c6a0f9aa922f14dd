"""Edge-case tests for the Access Grid layer: multi-client vnc, VizServer
control churn, disconnects, venue lifecycle."""

import numpy as np
import pytest

from repro.accessgrid import AGNode, VenueServer, VncClient, VncServer
from repro.accessgrid.vizserver import VizServerClient, VizServerSession
from repro.des import Environment
from repro.errors import VenueError
from repro.net import Network
from repro.viz import Camera, Geometry


def world(n=4):
    env = Environment()
    net = Network(env)
    net.add_host("hub")
    for i in range(n):
        net.add_host(f"s{i}")
        net.add_link("hub", f"s{i}", latency=0.005 * (i + 1), bandwidth=10e6 / 8)
    return env, net


def test_vnc_multiple_clients_independent_deltas():
    """Each vnc client has its own delta baseline; a client that skips
    updates still reconstructs correctly."""
    env, net = world(2)
    vnc = VncServer(net.host("hub"), 5900, width=32, height=32)
    vnc.start()
    vnc.fb.color[:8] = 100
    result = {}

    def fast_client():
        c = VncClient(net.host("s0"), "hub", 5900)
        yield from c.connect()
        for step in range(4):
            vnc.fb.color[8 + step * 4 : 12 + step * 4] = 50 + step
            fb = yield from c.request_update()
        result["fast"] = fb.color.copy()

    def slow_client():
        c = VncClient(net.host("s1"), "hub", 5900)
        yield from c.connect()
        yield env.timeout(2.0)  # only looks once, at the end
        fb = yield from c.request_update()
        result["slow"] = fb.color.copy()

    env.process(fast_client())
    env.process(slow_client())
    env.run(until=10.0)
    # Both converge to the same final desktop despite different cadences.
    np.testing.assert_array_equal(result["fast"], result["slow"])


def test_vnc_input_events_from_multiple_sites_all_arrive():
    env, net = world(3)
    vnc = VncServer(net.host("hub"), 5900, width=16, height=16)
    events = []
    vnc.on_input = events.append
    vnc.start()

    def site(i):
        c = VncClient(net.host(f"s{i}"), "hub", 5900)
        yield from c.connect()
        yield from c.send_input({"site": i})

    for i in range(3):
        env.process(site(i))
    env.run(until=5.0)
    assert sorted(e["site"] for e in events) == [0, 1, 2]
    assert vnc.input_events == 3


def test_vizserver_client_disconnect_releases_control():
    env, net = world(2)
    session = VizServerSession(net.host("hub"), 7010, width=32, height=24)
    session.scene.add_node("pts", Geometry("points", np.zeros((5, 3))))
    session.start()
    a = VizServerClient(net.host("s0"), "hub", 7010, "s0")
    b = VizServerClient(net.host("s1"), "hub", 7010, "s1")
    result = {}

    def scenario():
        yield from a.join()
        yield from b.join()
        assert session.control_holder == "s0"
        a._conn.close()  # the controlling site drops out
        yield env.timeout(1.0)
        result["holder"] = session.control_holder
        ok = yield from b.move_camera(Camera(eye=np.array([1.0, -2.0, 0.0])))
        result["b_can_steer"] = ok

    env.process(scenario())
    env.run(until=10.0)
    assert result["holder"] == "s1"
    assert result["b_can_steer"]


def test_vizserver_pass_control_to_unknown_site_denied():
    env, net = world(1)
    session = VizServerSession(net.host("hub"), 7010)
    session.start()
    a = VizServerClient(net.host("s0"), "hub", 7010, "s0")
    result = {}

    def scenario():
        yield from a.join()
        ok = yield from a.pass_control("nowhere")
        result["ok"] = ok
        # Control retained after the failed handover.
        result["holder"] = session.control_holder

    env.process(scenario())
    env.run(until=5.0)
    assert result["ok"] is False
    assert result["holder"] == "s0"


def _raw_site(net, host, frames, replies):
    """Generator: connect ``host`` to the hub's VizServer, send ``frames``
    one by one, record each reply, then close."""
    conn = yield from net.host(host).connect("hub", 7010, timeout=1.0)
    for frame in frames:
        conn.send(frame, size=128)
        replies.append((yield from conn.recv(timeout=1.0))["op"])
    conn.close()


def test_vizserver_second_join_on_one_connection_is_denied():
    """A connection that joins as alpha and then as beta must not leave
    alpha holding control after it closes."""
    env, net = world(2)
    session = VizServerSession(net.host("hub"), 7010, width=16, height=12)
    session.start()
    first, later = [], []

    def scenario():
        joins = [{"op": "join", "site": "alpha"}, {"op": "join", "site": "beta"}]
        yield from _raw_site(net, "s0", joins, first)
        yield env.timeout(1.0)
        gamma = VizServerClient(net.host("s1"), "hub", 7010, "gamma")
        later.append((yield from gamma.join()))
        later.append(gamma.has_control)

    env.process(scenario())
    env.run(until=10.0)
    assert first == ["joined", "denied"]
    assert later == [True, True]
    assert session.control_holder == "gamma"


def test_vizserver_join_under_a_taken_name_is_denied():
    """A second connection joining under a member's name neither takes
    its control nor, when it closes, detaches the live member."""
    env, net = world(2)
    session = VizServerSession(net.host("hub"), 7010, width=16, height=12)
    session.start()
    alpha = VizServerClient(net.host("s0"), "hub", 7010, "alpha")
    impostor = []
    result = {}

    def scenario():
        yield from alpha.join()
        yield from _raw_site(net, "s1", [{"op": "join", "site": "alpha"}], impostor)
        yield env.timeout(1.0)
        result["holder"] = session.control_holder
        yield from session.render_and_stream()
        yield env.timeout(1.0)
        result["frames"] = alpha.drain_frames()
        result["steer"] = yield from alpha.move_camera(Camera(eye=np.array([1.0, -2.0, 0.0])))

    env.process(scenario())
    env.run(until=10.0)
    assert impostor == ["denied"]
    assert result == {"holder": "alpha", "frames": 1, "steer": True}


def test_vizserver_unjoined_connection_cannot_steer():
    env, net = world(1)
    session = VizServerSession(net.host("hub"), 7010, width=16, height=12)
    session.start()
    eye = session.renderer.camera.eye.copy()
    replies = []
    state = {"eye": [5.0, 5.0, 5.0], "target": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 1.0],
             "fov_deg": 45.0}
    env.process(_raw_site(net, "s0", [{"op": "move_camera", "state": state}], replies))
    env.run(until=5.0)
    assert replies == ["denied"]
    np.testing.assert_array_equal(session.renderer.camera.eye, eye)


def test_venue_media_group_membership_follows_enter_leave():
    env, net = world(2)
    server = VenueServer(net, net.host("hub"))
    venue = server.create_venue("v")
    n0 = AGNode(net.host("s0"))
    n1 = AGNode(net.host("s1"))
    n0.enter(venue)
    n1.enter(venue)
    assert set(venue.video.members) == {"s0", "s1"}
    n0.leave()
    assert venue.video.members == ["s1"]
    # Re-entry works after leaving.
    n0.enter(venue)
    assert set(venue.video.members) == {"s0", "s1"}


def test_venue_server_multiple_venues_isolated():
    env, net = world(2)
    server = VenueServer(net, net.host("hub"))
    v1 = server.create_venue("physics")
    v2 = server.create_venue("engineering")
    assert server.venues() == ["engineering", "physics"]
    n = AGNode(net.host("s0"))
    n.enter(v1)
    assert v1.occupants() == ["s0"] and v2.occupants() == []
    with pytest.raises(VenueError):
        server.venue("nope")
