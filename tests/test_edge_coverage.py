"""Grab-bag edge tests for branches no other file exercises."""

import numpy as np
import pytest

from repro.des import Environment
from repro.errors import OgsaError, ReproError
from repro.net import Network, SyncPipe
from repro.ogsa import OgsiLiteContainer, ServiceConnection, VisualizationService
from repro.steering.control import SampleMsg
from repro.visit import VisitServer
from repro.viz import Camera, Renderer


def test_visit_server_on_data_callback_fires():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=0.001, bandwidth=1e8)
    server = VisitServer(net.host("b"), 6000, password="pw")
    seen = []
    server.on_data = lambda tag, payload: seen.append((tag, payload))
    server.start()
    from repro.visit import VisitClient

    client = VisitClient(net.host("a"), "b", 6000, "pw")

    def sim():
        yield from client.connect(timeout=1.0)
        yield from client.send(9, "hello")

    env.process(sim())
    env.run(until=2.0)
    assert seen == [(9, "hello")]


def test_network_counts_connects():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=0.001, bandwidth=1e8)
    listener = net.host("b").listen(5)

    def client():
        yield from net.host("a").connect("b", 5)

    env.process(client())
    env.run()
    ok, conn = listener._backlog.try_get()
    assert ok and conn.peer_host.name == "a" and conn.port == 5
    assert net.connect_attempts == 1


def test_viz_service_input_validation_and_no_sample_fault():
    env = Environment()
    net = Network(env)
    net.add_host("s")
    net.add_host("u")
    net.add_link("s", "u", latency=0.001, bandwidth=1e8)
    container = OgsiLiteContainer(net.host("s"), 8000)
    pipe = SyncPipe()
    container.deploy(VisualizationService("viz", pipe.a))
    container.start()
    result = {}

    def user():
        conn = ServiceConnection(net.host("u"), "s", 8000)
        yield from conn.open()
        with pytest.raises(OgsaError, match="3-vectors"):
            yield from conn.invoke("viz", "set_view", eye=[1, 2],
                                   target=[0, 0, 0])
        with pytest.raises(OgsaError, match="no sample"):
            yield from conn.invoke("viz", "render_frame")
        result["stats"] = yield from conn.invoke("viz", "stats")

    env.process(user())
    env.run(until=5.0)
    assert result["stats"]["frames_rendered"] == 0
    assert result["stats"]["latest_step"] == -1


def test_viz_service_ignores_samples_without_field():
    env = Environment()
    net = Network(env)
    net.add_host("s")
    container = OgsiLiteContainer(net.host("s"), 8000)
    pipe = SyncPipe()
    svc = VisualizationService("viz", pipe.a, field_key="density")
    container.deploy(svc)
    container.start()
    pipe.b.send(SampleMsg(seq=1, step=3, data={"other": np.zeros(3)}))
    pipe.b.send(SampleMsg(seq=2, step=4, data={"density": np.zeros((4, 4, 4))}))
    env.run(until=1.0)
    assert svc.latest_step == 4  # the field-less sample was skipped


def test_renderer_empty_inputs_are_noops():
    r = Renderer(16, 16)
    assert r.draw_points(np.zeros((0, 3))) == 0
    r.draw_triangles(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.intp))
    assert (r.fb.color == 0).all()


def test_renderer_rejects_unknown_geometry_kind():
    from repro.viz import Geometry

    r = Renderer(8, 8)
    g = Geometry("points", np.zeros((1, 3)))
    g.kind = "voxels"  # corrupt it
    with pytest.raises(ReproError, match="unknown geometry kind"):
        r.render_geometry(g)


def test_camera_rejects_degenerate_basis():
    cam = Camera(eye=np.zeros(3), target=np.zeros(3))
    with pytest.raises(ReproError, match="zero-length"):
        cam.basis()


def test_ogsa_container_malformed_envelope_fault():
    env = Environment()
    net = Network(env)
    net.add_host("s")
    net.add_host("u")
    net.add_link("s", "u", latency=0.001, bandwidth=1e8)
    container = OgsiLiteContainer(net.host("s"), 8000)
    container.start()
    result = {}

    def user():
        conn = yield from net.host("u").connect("s", 8000)
        conn.send({"not": "an envelope"})
        reply = yield from conn.recv(timeout=5.0)
        result["fault"] = reply["fault"]

    env.process(user())
    env.run(until=5.0)
    assert "envelope" in result["fault"]
    assert container.faults_returned == 1


def test_store_get_waiters_dont_steal_after_process_end():
    """A drained schedule with parked getters simply ends the run."""
    env = Environment()
    from repro.des import Store

    store = Store(env)

    def consumer():
        yield store.get()  # never satisfied

    env.process(consumer())
    env.run()  # terminates: blocked processes hold no scheduled events
    assert env.now == 0.0
