"""OGSA layer tests: envelopes, handles, container, registry, services."""

import pytest

from repro.des import Environment
from repro.errors import OgsaError, ServiceNotFound
from repro.net import Network
from repro.ogsa import (
    GridService,
    GridServiceHandle,
    HandleResolver,
    OgsaSteeringClient,
    OgsiLiteContainer,
    RegistryService,
    ServiceConnection,
    SteeringService,
    VisualizationService,
    envelope,
    open_envelope,
    operation,
)
from repro.ogsa.handles import GridServiceReference
from repro.sims import LatticeBoltzmann3D
from repro.steering import SteeredApplication, steered_app_process
from repro.net import SyncPipe
from repro.viz import decompress_frame


# -- envelopes / handles ---------------------------------------------------------


def test_envelope_roundtrip():
    env_msg = envelope("svc", "op", {"a": 1})
    service, op, body, fault = open_envelope(env_msg)
    assert (service, op, body, fault) == ("svc", "op", {"a": 1}, "")


def test_envelope_validation():
    with pytest.raises(OgsaError):
        open_envelope({"not": "an envelope"})
    with pytest.raises(OgsaError):
        open_envelope({"ns": "repro-ogsa/1.0", "header": {}, "body": {}})


def test_gsh_parse_and_str():
    h = GridServiceHandle.parse("gsh://man.ac.uk:8000/steer-lb3d")
    assert h.authority == "man.ac.uk:8000"
    assert h.service_id == "steer-lb3d"
    assert str(h) == "gsh://man.ac.uk:8000/steer-lb3d"
    for bad in ("http://x/y", "gsh://noslash", "gsh:///x", "gsh://a/"):
        with pytest.raises(OgsaError):
            GridServiceHandle.parse(bad)


def test_resolver_bind_resolve_rebind():
    r = HandleResolver()
    h = GridServiceHandle("auth", "svc")
    with pytest.raises(ServiceNotFound):
        r.resolve(h)
    r.bind(GridServiceReference(h, "host-a", 80, ("op1",)))
    assert r.resolve(h).host == "host-a"
    r.rebind(h, "host-b", 81)  # migration!
    ref = r.resolve(h)
    assert (ref.host, ref.port) == ("host-b", 81)
    assert ref.interface == ("op1",)


# -- container + basic service ---------------------------------------------------


class EchoService(GridService):
    @operation
    def echo(self, text: str = "") -> str:
        return text.upper()

    @operation
    def boom(self) -> None:
        raise ValueError("service bug")

    def hidden(self) -> str:  # not decorated: must not be invocable
        return "secret"


def grid():
    env = Environment()
    net = Network(env)
    net.add_host("server")
    net.add_host("client")
    net.add_link("server", "client", latency=0.005, bandwidth=10e6 / 8)
    return env, net


def test_container_deploy_and_invoke():
    env, net = grid()
    container = OgsiLiteContainer(net.host("server"), 8000)
    ref = container.deploy(EchoService("echo"))
    container.start()
    assert "echo" in ref.interface
    result = {}

    def client():
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        result["echo"] = yield from conn.invoke("echo", "echo", text="hi")
        with pytest.raises(OgsaError, match="service bug"):
            yield from conn.invoke("echo", "boom")
        with pytest.raises(OgsaError, match="no operation"):
            yield from conn.invoke("echo", "hidden")
        with pytest.raises(OgsaError, match="no such service"):
            yield from conn.invoke("ghost", "echo")
        result["sde"] = yield from conn.invoke("echo", "get_service_data")

    env.process(client())
    env.run(until=5.0)
    assert result["echo"] == "HI"
    assert isinstance(result["sde"], dict)
    assert container.faults_returned == 3


def test_container_duplicate_deploy_rejected():
    env, net = grid()
    container = OgsiLiteContainer(net.host("server"), 8000)
    container.deploy(EchoService("echo"))
    with pytest.raises(OgsaError):
        container.deploy(EchoService("echo"))


def test_service_lifetime_reaped():
    env, net = grid()
    container = OgsiLiteContainer(net.host("server"), 8000, reap_interval=1.0)
    svc = EchoService("short")
    container.deploy(svc)
    container.start()

    def client():
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        # Shorten the lifetime to 2 s, then outlive it.
        yield from conn.invoke("short", "request_termination_after", lifetime=2.0)
        yield env.timeout(5.0)
        with pytest.raises(OgsaError, match="no such service"):
            yield from conn.invoke("short", "echo", text="x")

    env.process(client())
    env.run(until=10.0)
    assert "short" not in container.deployed()
    assert container.reaped == 1


def test_registry_publish_find_unpublish():
    env, net = grid()
    container = OgsiLiteContainer(net.host("server"), 8000)
    container.deploy(RegistryService())
    container.start()
    result = {}

    def client():
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        yield from conn.invoke(
            "registry", "publish",
            handle="gsh://a/steer-lb3d",
            metadata={"type": "steering", "application": "LB3D"},
        )
        yield from conn.invoke(
            "registry", "publish",
            handle="gsh://a/steer-viz",
            metadata={"type": "viz-steering", "application": "LB3D"},
        )
        result["all"] = yield from conn.invoke("registry", "find", query={})
        result["steer"] = yield from conn.invoke(
            "registry", "find", query={"type": "steering"}
        )
        yield from conn.invoke("registry", "unpublish", handle="gsh://a/steer-lb3d")
        result["after"] = yield from conn.invoke(
            "registry", "find", query={"type": "steering"}
        )

    env.process(client())
    env.run(until=5.0)
    assert len(result["all"]) == 2
    assert [e["handle"] for e in result["steer"]] == ["gsh://a/steer-lb3d"]
    assert result["after"] == []


# -- steering service end-to-end ----------------------------------------------------


def steering_grid():
    """App on 'hpc', services on 'server', user on 'client'."""
    env = Environment()
    net = Network(env)
    for name in ("hpc", "server", "client"):
        net.add_host(name)
    net.add_link("hpc", "server", latency=0.008, bandwidth=100e6 / 8)
    net.add_link("server", "client", latency=0.02, bandwidth=10e6 / 8)
    net.add_link("hpc", "client", latency=0.025, bandwidth=10e6 / 8)

    sim = LatticeBoltzmann3D(shape=(8, 8, 8), g=0.5, seed=4)
    app = SteeredApplication(sim, name="lb3d", sample_interval=2)
    control_pipe = SyncPipe()
    sample_pipe = SyncPipe()
    app.attach_control(control_pipe.a)
    app.attach_sample_sink(sample_pipe.a)

    container = OgsiLiteContainer(net.host("server"), 8000)
    steer = SteeringService("steer-lb3d", control_pipe.b, application_name="LB3D")
    viz = VisualizationService("viz-lb3d", sample_pipe.b)
    registry = RegistryService()
    container.deploy(registry)
    ref_s = container.deploy(steer)
    ref_v = container.deploy(viz)
    container.start()

    resolver = HandleResolver()
    resolver.bind(ref_s)
    resolver.bind(ref_v)

    env.process(steered_app_process(env, app, compute_time=0.02))
    return env, net, app, container, resolver, (ref_s, ref_v), registry


def test_steering_service_set_param_and_status():
    env, net, app, container, resolver, (ref_s, _), _ = steering_grid()
    result = {}

    def user():
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        value = yield from conn.invoke(
            "steer-lb3d", "set_parameter", name="g", value=2.0
        )
        result["value"] = value
        status = yield from conn.invoke("steer-lb3d", "get_status")
        result["status"] = status
        with pytest.raises(OgsaError, match="rejected"):
            yield from conn.invoke(
                "steer-lb3d", "set_parameter", name="g", value=99.0
            )

    env.process(user())
    env.run(until=10.0)
    assert result["value"] == 2.0
    assert app.sim.g == 2.0
    assert result["status"]["parameters"]["g"] == 2.0
    assert result["status"]["step"] > 0


def test_pause_resume_and_destroy_by_name_on_a_running_session():
    """The listed operations nothing else invokes, through ``invoke(…, op)``:
    a paused application advances no step, ``resume`` restarts it, and a
    destroyed service reads as expired and is refused."""
    env, net, app, container, resolver, _, _ = steering_grid()
    steer = container._services["steer-lb3d"]
    result = {}

    def advanced(seconds):
        before = app.sim.step_count
        yield env.timeout(seconds)
        return app.sim.step_count - before

    def user():
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        result["running"] = yield from advanced(0.5)
        result["paused"] = yield from conn.invoke("steer-lb3d", "pause")
        result["while_paused"] = yield from advanced(1.0)
        result["resumed"] = yield from conn.invoke("steer-lb3d", "resume")
        result["after_resume"] = yield from advanced(1.0)
        result["destroyed"] = yield from conn.invoke("steer-lb3d", "destroy")
        result["expired"] = steer.expired(env.now)
        with pytest.raises(OgsaError, match="no such service"):
            yield from conn.invoke("steer-lb3d", "get_status")
        result["refused"] = True

    env.process(user())
    env.run(until=10.0)
    assert result["running"] > 0
    assert result["paused"] is True and result["while_paused"] == 0
    assert result["resumed"] is True and result["after_resume"] > 0
    assert result["destroyed"] is True and result["expired"]
    assert result["refused"]


def test_viz_service_renders_compressed_frames():
    env, net, app, container, resolver, (_, ref_v), _ = steering_grid()
    result = {}

    def user():
        yield env.timeout(1.0)  # let samples flow
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        yield from conn.invoke(
            "viz-lb3d", "set_view", eye=[0.0, -3.0, 0.0], target=[0.0, 0.0, 0.0]
        )
        frame_info = yield from conn.invoke("viz-lb3d", "render_frame")
        result["frame"] = frame_info

    env.process(user())
    env.run(until=5.0)
    info = result["frame"]
    assert info["step"] > 0
    fb = decompress_frame(info["frame"])
    assert (fb.width, fb.height) == (320, 240)
    # VizServer economics: compressed frame smaller than the raw bitmap.
    assert len(info["frame"]) < info["raw_bytes"]


def test_full_fig2_workflow_registry_bind_steer():
    """The complete Figure 2 path: registry -> choose -> bind -> steer."""
    env, net, app, container, resolver, (ref_s, ref_v), _ = steering_grid()
    result = {}

    def user():
        client = OgsaSteeringClient(
            net.host("client"), resolver, "server", 8000
        )
        # Publish both services (normally the orchestrator does this).
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        yield from conn.invoke(
            "registry", "publish", handle=str(ref_s.handle),
            metadata={"type": "steering", "application": "LB3D"},
        )
        yield from conn.invoke(
            "registry", "publish", handle=str(ref_v.handle),
            metadata={"type": "viz-steering", "application": "LB3D"},
        )
        found = yield from client.find_services(application="LB3D")
        result["found"] = [e["handle"] for e in found]
        steer_handle = next(
            e["handle"] for e in found if e["metadata"]["type"] == "steering"
        )
        yield from client.bind(steer_handle)
        value = yield from client.invoke(steer_handle, "set_parameter",
                                         name="g", value=3.0)
        result["steered"] = value
        client.close()

    env.process(user())
    env.run(until=10.0)
    assert len(result["found"]) == 2
    assert result["steered"] == 3.0
    assert app.sim.g == 3.0


def test_dead_app_faults_service_not_container():
    env, net, app, container, resolver, (ref_s, _), _ = steering_grid()
    app.stopped = True  # the application dies; its loop exits
    steer = container.service("steer-lb3d")
    steer.reply_timeout = 0.5
    result = {}

    def user():
        yield env.timeout(0.5)  # ensure the app loop has exited
        conn = ServiceConnection(net.host("client"), "server", 8000)
        yield from conn.open()
        try:
            yield from conn.invoke("steer-lb3d", "set_parameter",
                                   name="g", value=1.0)
        except OgsaError as exc:
            result["fault"] = str(exc)
        # The container survives and serves other services.
        result["others"] = yield from conn.invoke("registry", "find", query={})

    env.process(user())
    env.run(until=10.0)
    assert "did not reply" in result["fault"]
    assert result["others"] == []
