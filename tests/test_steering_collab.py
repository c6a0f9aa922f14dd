"""Collaborative session + control-state server tests."""

import pytest

from repro.errors import NotMaster, SteeringError
from repro.net import SyncPipe
from repro.sims import LatticeBoltzmann3D
from repro.steering import (
    CollaborativeSession,
    ControlStateServer,
    SteeredApplication,
    SteeringClient,
)
from repro.steering.collab import StateUpdate


def build_session(n_participants=3):
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), g=0.5, seed=2)
    app = SteeredApplication(sim, name="lb3d", sample_interval=1)
    app_pipe = SyncPipe()
    app.attach_control(app_pipe.a)
    app.attach_sample_sink(app_pipe.a)
    session = CollaborativeSession(app_pipe.b)
    clients = []
    for i in range(n_participants):
        pipe = SyncPipe()
        session.join(f"site{i}", pipe.a)
        clients.append(SteeringClient(pipe.b, name=f"site{i}"))
    return app, session, clients


def test_first_joiner_is_master():
    _, session, _ = build_session(3)
    assert session.master == "site0"


def test_all_observers_see_identical_samples():
    app, session, clients = build_session(3)
    for _ in range(4):
        app.step_once()
        session.pump()
    for c in clients:
        c.drain()
    seqs = [[s.seq for s in c.samples] for c in clients]
    assert seqs[0] == seqs[1] == seqs[2] == [1, 2, 3, 4]


def test_only_master_commands_reach_app():
    app, session, clients = build_session(2)
    master, observer = clients
    m_seq = master.set_parameter("g", 2.0)
    o_seq = observer.set_parameter("g", 0.1)
    session.pump()
    app.process_control()
    session.pump()
    master.drain()
    observer.drain()
    assert app.sim.g == 2.0  # master's value, not the observer's
    assert master.ack_for(m_seq).ok
    rejection = observer.ack_for(o_seq)
    assert rejection is not None and not rejection.ok
    assert "observer" in rejection.error


def test_pass_master_enables_new_steerer():
    app, session, clients = build_session(2)
    session.pass_master("site0", "site1")
    assert session.master == "site1"
    seq = clients[1].set_parameter("g", 1.5)
    session.pump()
    app.process_control()
    session.pump()
    clients[1].drain()
    assert clients[1].ack_for(seq).ok
    assert app.sim.g == 1.5


def test_pass_master_requires_token():
    _, session, _ = build_session(3)
    with pytest.raises(NotMaster):
        session.pass_master("site1", "site2")
    with pytest.raises(SteeringError):
        session.pass_master("site0", "nobody")


def test_master_leave_promotes_observer():
    _, session, _ = build_session(3)
    session.leave("site0")
    assert session.master == "site1"
    assert session.master_handovers == 1


def test_last_participant_leaving_empties_session():
    _, session, _ = build_session(1)
    session.leave("site0")
    assert session.master is None
    assert session.participants() == []


def test_duplicate_join_rejected():
    _, session, _ = build_session(1)
    with pytest.raises(SteeringError):
        session.join("site0", SyncPipe().a)


def test_drop_policy_silently_discards():
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), seed=3)
    app = SteeredApplication(sim)
    app_pipe = SyncPipe()
    app.attach_control(app_pipe.a)
    session = CollaborativeSession(app_pipe.b, reject_policy="drop")
    p1, p2 = SyncPipe(), SyncPipe()
    session.join("m", p1.a)
    session.join("o", p2.a)
    observer = SteeringClient(p2.b, name="o")
    observer.set_parameter("g", 3.0)
    session.pump()
    app.process_control()
    session.pump()
    observer.drain()
    assert observer.acks == {}  # silently dropped
    assert app.sim.g == 0.0


# -- control-state server ------------------------------------------------------


def test_controller_update_redistributed_to_others():
    server = ControlStateServer()
    pipes = {n: SyncPipe() for n in ("a", "b", "c")}
    server.join("a", pipes["a"].a, role="controller")
    server.join("b", pipes["b"].a, role="viewer")
    server.join("c", pipes["c"].a, role="viewer")

    pipes["a"].b.send(StateUpdate("view_angle", 45.0, origin="a"))
    stats = server.pump()
    assert stats == {"applied": 1, "rejected": 0, "redistributed": 2}
    for other in ("b", "c"):
        ok, update = pipes[other].b.poll()
        assert ok and update.key == "view_angle" and update.value == 45.0
        assert update.origin == "a"
    # The sender does not get its own echo.
    assert pipes["a"].b.poll() == (False, None)
    assert server.state == {"view_angle": 45.0}


def test_viewer_updates_rejected():
    server = ControlStateServer()
    p = SyncPipe()
    server.join("v", p.a, role="viewer")
    p.b.send(StateUpdate("cutplane_z", 0.5, origin="v"))
    stats = server.pump()
    assert stats["rejected"] == 1
    assert server.state == {}


def test_role_promotion_enables_control():
    server = ControlStateServer()
    p = SyncPipe()
    server.join("v", p.a, role="viewer")
    server.set_role("v", "controller")
    p.b.send(StateUpdate("cutplane_z", 0.5, origin="v"))
    assert server.pump()["applied"] == 1
    assert server.state["cutplane_z"] == 0.5


def test_late_joiner_receives_full_state():
    server = ControlStateServer()
    c = SyncPipe()
    server.join("ctl", c.a, role="controller")
    c.b.send(StateUpdate("view_angle", 30.0, origin="ctl"))
    c.b.send(StateUpdate("threshold", 0.7, origin="ctl"))
    server.pump()

    late = SyncPipe()
    server.join("late", late.a)
    got = {}
    while True:
        ok, update = late.b.poll()
        if not ok:
            break
        got[update.key] = update.value
    assert got == {"view_angle": 30.0, "threshold": 0.7}


def test_state_versions_monotonic():
    server = ControlStateServer()
    c = SyncPipe()
    v = SyncPipe()
    server.join("ctl", c.a, role="controller")
    server.join("view", v.a, role="viewer")
    for value in (1.0, 2.0, 3.0):
        c.b.send(StateUpdate("x", value, origin="ctl"))
    server.pump()
    versions = []
    while True:
        ok, update = v.b.poll()
        if not ok:
            break
        versions.append(update.version)
    assert versions == sorted(versions) and len(set(versions)) == 3


def test_membership_validation():
    server = ControlStateServer()
    p = SyncPipe()
    server.join("x", p.a)
    with pytest.raises(SteeringError):
        server.join("x", p.a)
    with pytest.raises(SteeringError):
        server.join("y", p.a, role="boss")
    with pytest.raises(SteeringError):
        server.set_role("nobody", "viewer")
    with pytest.raises(SteeringError):
        server.leave("nobody")
    server.leave("x")
    assert server.members() == {}


def test_session_master_is_the_token_holder():
    _, session, _ = build_session(2)
    assert session.master == "site0"
    session.pass_master("site0", "site1")
    assert session.master == "site1"
    assert session.participants() == ["site0", "site1"]
