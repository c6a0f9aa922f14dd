"""Steering core tests: params, control protocol, instrumented app, client."""

import numpy as np
import pytest

from repro.des import Environment
from repro.errors import ProtocolError, SteeringError
from repro.net import SyncPipe
from repro.sims import LatticeBoltzmann3D
from repro.steering import (
    Ack,
    GetStatus,
    ParameterDef,
    ParameterRegistry,
    SampleMsg,
    SetParam,
    StatusReport,
    SteeredApplication,
    SteeringClient,
    decode_message,
    encode_message,
)
from repro.steering.api import PUMP_TICK, pump
from repro.wire import decode, encode


# -- parameter registry ---------------------------------------------------------


def test_parameter_def_validation():
    with pytest.raises(SteeringError):
        ParameterDef("x", kind="writable")
    with pytest.raises(SteeringError):
        ParameterDef("x", minimum=2.0, maximum=1.0)
    d = ParameterDef("x", minimum=0.0, maximum=1.0)
    d.validate(0.5)
    with pytest.raises(SteeringError):
        d.validate(2.0)
    with pytest.raises(SteeringError):
        d.validate(-0.1)


def test_registry_steered_and_monitored():
    store = {"g": 1.0}
    reg = ParameterRegistry()
    reg.register(
        ParameterDef("g"), getter=lambda: store["g"],
        setter=lambda v: store.__setitem__("g", v),
    )
    reg.register(ParameterDef("energy", kind="monitored"), getter=lambda: 42.0)
    assert reg.names() == ["energy", "g"]
    assert reg.names("steered") == ["g"]
    reg.set("g", 2.0)
    assert store["g"] == 2.0
    with pytest.raises(SteeringError):
        reg.set("energy", 1.0)  # read-only
    with pytest.raises(SteeringError):
        reg.set("missing", 1.0)
    assert reg.snapshot() == {"energy": 42.0, "g": 2.0}


def test_registry_requires_setter_for_steered():
    reg = ParameterRegistry()
    with pytest.raises(SteeringError):
        reg.register(ParameterDef("g"), getter=lambda: 0)


def test_registry_duplicate_rejected():
    reg = ParameterRegistry()
    reg.register(ParameterDef("m", kind="monitored"), getter=lambda: 0)
    with pytest.raises(SteeringError):
        reg.register(ParameterDef("m", kind="monitored"), getter=lambda: 0)


# -- control message wire form ------------------------------------------------------


@pytest.mark.parametrize(
    "msg",
    [
        SetParam(name="g", value=2.5, seq=3, sender="me"),
        Ack(seq=3, ok=True, command="SetParam", result=2.5),
        StatusReport(step=10, time=1.0, observables={"demix": 0.1},
                     parameters={"g": 2.5}),
        GetStatus(seq=1),
    ],
)
def test_message_roundtrip_through_codec(msg):
    wire = encode(encode_message(msg))  # full binary round trip
    assert decode_message(decode(wire)) == msg


def test_sample_msg_roundtrip_with_array():
    msg = SampleMsg(seq=1, step=5, data={"field": np.arange(6, dtype=np.float32)})
    out = decode_message(decode(encode(encode_message(msg))))
    np.testing.assert_array_equal(out.data["field"], msg.data["field"])


def test_decode_message_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_message({"no_kind": 1})
    with pytest.raises(ProtocolError):
        decode_message({"_kind": "Nonsense"})
    with pytest.raises(ProtocolError):
        decode_message({"_kind": "SetParam", "bogus_field": 1})
    with pytest.raises(ProtocolError):  # a float field is finite
        decode_message({"_kind": "StatusReport", "step": 1, "time": float("nan")})
    with pytest.raises(ProtocolError):
        encode_message(object())


# -- instrumented application ------------------------------------------------------


def make_app(**kw):
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), g=0.5, seed=1)
    return SteeredApplication(sim, name="lb3d", **kw)


def test_app_registers_parameters_from_sim():
    app = make_app()
    assert "g" in app.registry.names("steered")
    assert "tau" in app.registry.names("steered")
    assert "demix" in app.registry.names("monitored")


def test_set_param_roundtrip_via_client():
    app = make_app()
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    client = SteeringClient(pipe.b, name="john")
    seq = client.set_parameter("g", 2.0)
    app.process_control()
    client.drain()
    ack = client.ack_for(seq)
    assert ack is not None and ack.ok and ack.result == 2.0
    assert app.sim.g == 2.0


def test_bad_set_param_reports_error_not_crash():
    app = make_app()
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    client = SteeringClient(pipe.b)
    seq = client.set_parameter("g", 99.0)  # outside the accepted range
    app.process_control()
    client.drain()
    ack = client.ack_for(seq)
    assert ack is not None and not ack.ok and "accepted range" in ack.error
    assert app.sim.g == 0.5  # unchanged


NAN, INF = float("nan"), float("inf")

#: sim kind -> (scalar steered parameters, array steered parameters)
STEERED = {
    "lb3d": (("g", "tau"), ()),
    "pepc": (
        ("beam_charge_scale", "laser_intensity", "damping"),
        ("beam_direction", "laser_direction"),
    ),
    "building": (("vent_speed", "vent_temperature", "heat_load"), ()),
    "crowd": ((), ("attractiveness",)),
}
HOSTILE_SCALARS = ("abc", None, [1.0], {"v": 1.0}, True, NAN, INF, -INF, 10**400, 1 + 2j)
HOSTILE_ARRAYS = (
    "abc", None, {"v": 1.0}, [NAN, 1.0, 1.0], [1.0, -INF, 1.0], [1.0, [2.0], 1.0],
    [True, False, True], ["a", "b", "c"], [1.0, 1.0], 2.0,
)  # fmt: skip


@pytest.mark.parametrize("kind", sorted(STEERED))
def test_hostile_set_param_values_are_error_acks_on_every_sim(kind):
    from repro.fleet.spec import ScenarioSpec, make_sim

    app = SteeredApplication(make_sim(kind, seed=1), name=kind)
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    client = SteeringClient(pipe.b)
    scalars, arrays = STEERED[kind]
    assert set(scalars) | set(arrays) == set(app.registry.names("steered"))
    before = encode(app.sim.steerable_parameters())
    attempts = [(n, v) for n in scalars for v in HOSTILE_SCALARS]
    attempts += [(n, v) for n in arrays for v in HOSTILE_ARRAYS]
    for name, value in attempts:
        seq = client.set_parameter(name, value)
        assert app.process_control() == 0, (name, value)  # and did not raise
        client.drain()
        ack = client.ack_for(seq)
        assert ack is not None and not ack.ok and name in ack.error, (name, value)
        assert encode(app.sim.steerable_parameters()) == before, (name, value)
    # the loop is alive and the numbers are clean long after
    for _ in range(40):
        assert app.step_once()
    assert all(np.isfinite(v) for v in app.sim.observables().values())
    # a finite value is applied exactly as before
    spec = ScenarioSpec(name="s", sim=kind)
    seq = client.set_parameter(spec.steer_param, spec.steer_value(0))
    assert app.process_control() == 1
    client.drain()
    assert client.ack_for(seq).ok
    assert np.array_equal(app.registry.get(spec.steer_param), spec.steer_value(0))


def test_registry_turns_a_setter_conversion_failure_into_a_steering_error():
    store = {"x": 1.0}

    def setter(value):
        store["x"] = float(value)  # float([2.0]) is a TypeError

    reg = ParameterRegistry()
    reg.register(ParameterDef("x"), getter=lambda: store["x"], setter=setter)
    with pytest.raises(SteeringError, match="x: cannot apply"):
        reg.set("x", [2.0])
    assert store["x"] == 1.0
    reg.set("x", np.float32(2.5))  # numpy reals and plain ints are still numbers
    reg.set("x", 3)
    assert store["x"] == 3.0


def test_pause_resume_stop_lifecycle():
    app = make_app()
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    client = SteeringClient(pipe.b)

    client.pause()
    app.step_once()
    assert app.paused and app.sim.step_count == 0

    client.resume()
    app.step_once()
    assert not app.paused and app.sim.step_count == 1

    client.stop()
    assert app.step_once() is False
    assert app.sim.step_count == 1


def test_status_report_contents():
    app = make_app()
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    client = SteeringClient(pipe.b)
    app.run(3)
    client.request_status()
    app.process_control()
    client.drain()
    st = client.last_status
    assert st is not None and st.step == 3
    assert st.parameters["g"] == 0.5
    assert "demix" in st.observables


def test_samples_emitted_at_interval():
    app = make_app(sample_interval=5)
    pipe = SyncPipe()
    app.attach_sample_sink(pipe.a)
    client = SteeringClient(pipe.b)
    app.run(12)
    client.drain()
    assert [s.step for s in client.samples] == [5, 10]
    assert client.latest_sample().data["order_parameter"].shape == (6, 6, 6)


def test_app_never_blocks_without_client_traffic():
    app = make_app()
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    # No client ever sends anything; the app must happily run.
    assert app.run(10) == 10


def test_two_control_links_both_served():
    app = make_app()
    p1, p2 = SyncPipe(), SyncPipe()
    app.attach_control(p1.a)
    app.attach_control(p2.a)
    c1 = SteeringClient(p1.b, name="a")
    c2 = SteeringClient(p2.b, name="b")
    c1.set_parameter("g", 1.0)
    c2.set_parameter("tau", 0.9)
    app.process_control()
    assert app.sim.g == 1.0 and app.sim.tau == 0.9


def test_pump_ends_once_handled_stop_and_link_is_quiet():
    env = Environment()
    service_end, app_end = SyncPipe().ends()
    seen = []

    def handle(msg):
        seen.append((env.now, msg))
        return msg == "stop"

    def app():
        app_end.send("status")
        yield env.timeout(0.015)
        app_end.send("stop")
        yield env.timeout(0.5)
        app_end.send("late")

    env.process(app())
    pumping = env.process(pump(env, service_end, handle))
    env.run()
    # A SyncPipe end cannot signal arrivals, so the idle pump polls on
    # the PUMP_TICK grid and hears the stop at its second tick.
    assert seen == [(0.0, "status"), (2 * PUMP_TICK, "stop")]
    assert not pumping.is_alive
    assert service_end.pending() == 1  # "late" was never drained


def test_sample_interval_validation():
    with pytest.raises(SteeringError):
        make_app(sample_interval=0)


def test_param_def_override_applies_bounds():
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), g=0.5)
    app = SteeredApplication(
        sim, param_defs=[ParameterDef("g", minimum=0.0, maximum=3.0)]
    )
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    client = SteeringClient(pipe.b)
    seq = client.set_parameter("g", 3.5)  # within the sim's accepted range but
    app.process_control()                 # outside the published bound
    client.drain()
    assert not client.ack_for(seq).ok
