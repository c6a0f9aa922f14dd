"""The master-token rules of a collaborative session (section 3.3), on a
live shared VizServer session.

"Receive-requests are only sent to a 'master' visualization ... The
master-role can be moved": the first joiner holds control; only the
holder may pass it, and only to a member; a departing holder's control
goes to the earliest remaining member; the last leave empties the
session.
"""

import numpy as np

from repro.accessgrid.vizserver import VizServerClient, VizServerSession
from repro.des import Environment
from repro.net import Network
from repro.viz import Camera

PORT = 7010


def world(n):
    env = Environment()
    net = Network(env)
    net.add_host("hub")
    for i in range(n):
        net.add_host(f"site{i}")
        net.add_link("hub", f"site{i}", latency=0.005, bandwidth=10e6 / 8)
    session = VizServerSession(net.host("hub"), PORT, width=16, height=12)
    session.start()
    return env, net, session


def run(env, scenario):
    """Run the generator ``scenario`` to its end; return what it returns."""
    out = {}

    def wrapper():
        out["result"] = yield from scenario()

    env.process(wrapper())
    env.run(until=60.0)
    return out["result"]


def joined_clients(net, n, first=0):
    """Generator: join site{first}..site{n-1} in order; returns the clients."""
    clients = []
    for i in range(first, n):
        client = VizServerClient(net.host(f"site{i}"), "hub", PORT, f"site{i}")
        assert (yield from client.join())
        clients.append(client)
    return clients


def leave_site(net, site):
    """Generator: join ``site`` on a connection of its own, then close it."""
    conn = yield from net.host(site).connect("hub", PORT, timeout=1.0)
    conn.send({"op": "join", "site": site}, size=128)
    assert (yield from conn.recv(timeout=1.0))["op"] == "joined"
    return conn


def camera(x):
    return Camera(eye=np.array([x, -2.0, 0.0]))


def test_first_joiner_is_master():
    env, net, session = world(3)

    def scenario():
        return (yield from joined_clients(net, 3))

    clients = run(env, scenario)
    assert session.control_holder == "site0"
    assert [c.has_control for c in clients] == [True, False, False]


def test_pass_master_requires_token():
    env, net, session = world(3)

    def scenario():
        clients = yield from joined_clients(net, 3)
        by_observer = yield from clients[1].pass_control("site2")
        holder_after_observer = session.control_holder
        to_stranger = yield from clients[0].pass_control("nobody")
        return by_observer, holder_after_observer, to_stranger

    by_observer, holder_after_observer, to_stranger = run(env, scenario)
    assert by_observer is False
    assert holder_after_observer == "site0"
    assert to_stranger is False
    assert session.control_holder == "site0"


def test_master_leave_promotes_observer():
    env, net, session = world(3)

    def scenario():
        master = yield from leave_site(net, "site0")
        clients = yield from joined_clients(net, 3, first=1)
        master.close()
        yield env.timeout(1.0)
        holder = session.control_holder
        steered = yield from clients[0].move_camera(camera(1.0))
        return holder, steered

    holder, steered = run(env, scenario)
    assert holder == "site1"
    assert steered is True


def test_last_participant_leaving_empties_session():
    env, net, session = world(2)

    def scenario():
        only = yield from leave_site(net, "site0")
        only.close()
        yield env.timeout(1.0)
        emptied = session.control_holder
        newcomer = VizServerClient(net.host("site1"), "hub", PORT, "site1")
        joined = yield from newcomer.join()
        return emptied, joined, newcomer.has_control

    emptied, joined, newcomer_has_control = run(env, scenario)
    assert emptied is None
    assert joined is True and newcomer_has_control is True
    assert session.control_holder == "site1"


def test_session_master_is_the_token_holder():
    env, net, session = world(2)

    def scenario():
        clients = yield from joined_clients(net, 2)
        before = session.control_holder
        passed = yield from clients[0].pass_control("site1")
        new_holder_steers = yield from clients[1].move_camera(camera(2.0))
        old_holder_steers = yield from clients[0].move_camera(camera(3.0))
        return before, passed, new_holder_steers, old_holder_steers

    before, passed, new_holder_steers, old_holder_steers = run(env, scenario)
    assert before == "site0"
    assert passed is True
    assert session.control_holder == "site1"
    assert new_holder_steers is True
    assert old_holder_steers is False
    np.testing.assert_array_equal(session.renderer.camera.eye, [2.0, -2.0, 0.0])
