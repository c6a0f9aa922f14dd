"""Access Grid tests: venues, media, vnc sharing, VizServer sessions."""

import numpy as np
import pytest

from repro.accessgrid import AGNode, VenueServer, VncClient, VncServer
from repro.accessgrid.media import MediaProducer
from repro.accessgrid.vizserver import VizServerClient, VizServerSession
from repro.des import Environment
from repro.errors import NetworkError, VenueError
from repro.net import Firewall, Network
from repro.viz import Camera, Geometry


def ag_world(n_sites=3, with_cave=False):
    env = Environment()
    net = Network(env)
    net.add_host("venue-server")
    hosts = []
    for i in range(n_sites):
        name = f"site{i}"
        net.add_host(name)
        net.add_link("venue-server", name, latency=0.01 + 0.005 * i,
                     bandwidth=10e6 / 8)
        hosts.append(name)
    if with_cave:
        net.add_host("cave", multicast=False, firewall=Firewall.closed())
        net.add_link("venue-server", "cave", latency=0.03, bandwidth=10e6 / 8)
    server = VenueServer(net, net.host("venue-server"))
    return env, net, server, hosts


def test_duplicate_venue_and_double_enter_rejected():
    env, net, server, hosts = ag_world(1)
    venue = server.create_venue("v")
    with pytest.raises(VenueError):
        server.create_venue("v")
    node = AGNode(net.host("site0"))
    node.enter(venue)
    with pytest.raises(VenueError):
        node.enter(venue)


def test_media_flows_to_all_native_multicast_sites():
    env, net, server, hosts = ag_world(3)
    venue = server.create_venue("v")
    nodes = [AGNode(net.host(h)) for h in hosts]
    for n in nodes:
        n.enter(venue)
    producer = MediaProducer(net.host("site0"), venue.video, fps=10,
                             frame_bytes=4000)
    producer.start()
    env.run(until=2.0)
    producer.stop()
    # Sender does not hear itself; the other two sites do.
    assert nodes[0].video_receiver.frames_received == 0
    for n in nodes[1:]:
        assert n.video_receiver.frames_received >= 15
        assert n.video_receiver.gaps == 0
        assert n.video_receiver.latency.mean < 0.1


def test_firewalled_cave_needs_bridge():
    env, net, server, hosts = ag_world(2, with_cave=True)
    venue = server.create_venue("v")
    cave = AGNode(net.host("cave"))
    with pytest.raises(NetworkError, match="bridge"):
        cave.enter(venue)
    # With a bridge on the venue server it works.
    cave.enter(venue, bridge_host=net.host("venue-server"))
    assert cave.bridged
    sender = AGNode(net.host("site0"))
    sender.enter(venue)
    producer = MediaProducer(net.host("site0"), venue.video, fps=10,
                             frame_bytes=2000)
    producer.start()
    env.run(until=1.5)
    producer.stop()
    assert cave.video_receiver.frames_received >= 10


def test_app_session_startup_info():
    env, net, server, hosts = ag_world(2)
    venue = server.create_venue("v")
    nodes = [AGNode(net.host(h)) for h in hosts]
    for n in nodes:
        n.enter(venue)
    session = venue.create_app_session(
        "covise", {"map": "building-climate", "controller": "site0"}
    )
    nodes[0].join_app(session.session_id)
    nodes[1].join_app(session.session_id)
    assert session.participants == ["site0", "site1"]
    assert session.startup_info["map"] == "building-climate"
    with pytest.raises(VenueError):
        venue.join_app_session("nope", "site0")


def test_vnc_shared_steering_panel():
    env, net, server, hosts = ag_world(2)
    vnc = VncServer(net.host("site0"), 5900, width=64, height=48)
    slider = {"g": 1.0}

    def on_input(event):
        if event.get("widget") == "g-slider":
            slider["g"] = event["value"]

    vnc.on_input = on_input
    vnc.start()
    vnc.fb.color[:16] = 200  # something on screen
    client = VncClient(net.host("site1"), "site0", 5900)
    result = {}

    def remote_user():
        yield from client.connect()
        fb = yield from client.request_update()
        result["first"] = fb.color.copy()
        ok = yield from client.send_input(
            {"widget": "g-slider", "value": 2.5}
        )
        result["input_ok"] = ok
        vnc.fb.color[16:32] = 90  # the GUI reacts
        fb = yield from client.request_update()
        result["second"] = fb.color.copy()

    env.process(remote_user())
    env.run(until=5.0)
    np.testing.assert_array_equal(result["first"][:16], 200)
    assert result["input_ok"] and slider["g"] == 2.5
    np.testing.assert_array_equal(result["second"][16:32], 90)
    assert vnc.updates_served == 2 and vnc.input_events == 1


def test_vnc_delta_updates_cheap_when_static():
    env, net, server, hosts = ag_world(2)
    vnc = VncServer(net.host("site0"), 5900, width=160, height=120)
    vnc.start()
    rng = np.random.default_rng(0)
    vnc.fb.color[:] = rng.integers(0, 256, vnc.fb.color.shape, dtype=np.uint8)
    client = VncClient(net.host("site1"), "site0", 5900)
    sizes = []

    def remote_user():
        yield from client.connect()
        yield from client.request_update()
        sizes.append(vnc.bytes_served)
        yield from client.request_update()  # nothing changed
        sizes.append(vnc.bytes_served - sizes[0])

    env.process(remote_user())
    env.run(until=5.0)
    assert sizes[1] < sizes[0] / 50  # delta of a static screen ~ free


def test_vizserver_shared_session_control_token():
    env, net, server, hosts = ag_world(3)
    session = VizServerSession(net.host("venue-server"), 7010, width=64,
                               height=48)
    session.scene.add_node(
        "cloud", Geometry("points", np.random.default_rng(1).random((200, 3)))
    )
    session.start()
    a = VizServerClient(net.host("site0"), "venue-server", 7010, "site0")
    b = VizServerClient(net.host("site1"), "venue-server", 7010, "site1")
    result = {}

    def scenario():
        yield from a.join()
        yield from b.join()
        result["a_control"] = a.has_control
        result["b_control"] = b.has_control
        # b cannot steer the camera...
        ok = yield from b.move_camera(Camera(eye=np.array([0.0, -5.0, 0.0])))
        result["b_move_denied"] = not ok
        # ...until a passes control.
        ok = yield from a.pass_control("site1")
        result["passed"] = ok
        ok = yield from b.move_camera(Camera(eye=np.array([0.0, -5.0, 0.0])))
        result["b_move_ok"] = ok
        # Stream some frames to everyone.
        for _ in range(3):
            yield from session.render_and_stream()
        yield env.timeout(0.5)
        result["a_frames"] = a.drain_frames()
        result["b_frames"] = b.drain_frames()

    env.process(scenario())
    env.run(until=10.0)
    assert result["a_control"] and not result["b_control"]
    assert result["b_move_denied"] and result["passed"] and result["b_move_ok"]
    assert result["a_frames"] == 3 and result["b_frames"] == 3
    assert session.bytes_streamed > 0


def test_vizserver_traffic_independent_of_geometry():
    """The VizServer economics: bitmap traffic does not grow with the
    dataset; streamed-geometry cost would."""
    env, net, server, hosts = ag_world(1)
    session = VizServerSession(net.host("venue-server"), 7010, width=64,
                               height=48)
    session.start()
    client = VizServerClient(net.host("site0"), "venue-server", 7010, "site0")
    rng = np.random.default_rng(2)
    bytes_per_size = {}

    def scenario():
        yield from client.join()
        for npts in (100, 10_000):
            geom = Geometry("points", rng.random((npts, 3)))
            if "cloud" in session.scene._index:
                session.scene.set_geometry("cloud", geom)
            else:
                session.scene.add_node("cloud", geom)
            before = session.bytes_streamed
            yield from session.render_and_stream()
            bytes_per_size[npts] = session.bytes_streamed - before

    env.process(scenario())
    env.run(until=10.0)
    # 100x more geometry, but frame bytes stay the same order of magnitude.
    assert bytes_per_size[10_000] < 5 * bytes_per_size[100]
