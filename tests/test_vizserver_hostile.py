"""Hostile VizServer input, as a property: no client frame ends the world.

A shared VizServer session (paper section 2.4) takes ``join``,
``move_camera`` and ``pass_control`` frames from every attached site.
A site name that is not a string, or a camera state without ``eye``,
``target`` and ``up`` as three finite numbers each and a finite
``fov_deg``, is answered ``denied``, and so is a second join on one
connection; the session keeps serving and its camera stays finite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accessgrid.vizserver import VizServerSession
from repro.des import Environment
from repro.errors import TimeoutExpired
from repro.net import Network

PORT = 7010
GOOD = {"eye": [0.0, -4.0, 1.0], "target": [0.0, 0.0, 0.0], "up": [0.0, 0.0, 1.0],
        "fov_deg": 45.0}

#: any JSON-ish value, non-finite floats included
VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)
VECTOR = st.one_of(VALUE, st.lists(st.one_of(st.floats(), st.integers(), st.booleans()),
                                   min_size=3, max_size=3))
STATE = st.one_of(VALUE, st.fixed_dictionaries(
    {}, optional={"eye": VECTOR, "target": VECTOR, "up": VECTOR, "fov_deg": VALUE},
))
FRAME = st.one_of(
    VALUE,
    st.builds(lambda v: {"op": "join", "site": v}, VALUE),
    st.builds(lambda v: {"op": "pass_control", "to": v}, VALUE),
    st.builds(lambda v: {"op": "move_camera", "state": v}, STATE),
)


@settings(max_examples=150, deadline=None)
@given(frame=FRAME)
def test_hostile_vizserver_frame_is_denied_and_the_world_runs(frame):
    env = Environment()
    net = Network(env)
    net.add_host("hub")
    net.add_host("s0")
    net.add_link("hub", "s0", latency=0.005, bandwidth=1e6)
    session = VizServerSession(net.host("hub"), PORT, width=16, height=12)
    session.start()
    replies = []

    def peer():
        conn = yield from net.host("s0").connect("hub", PORT, timeout=1.0)
        conn.send({"op": "join", "site": "s0"}, size=128)
        conn.send(frame, size=128)
        conn.send({"op": "move_camera", "state": GOOD}, size=128)
        try:
            while True:
                replies.append((yield from conn.recv(timeout=1.0)))
        except TimeoutExpired:
            pass

    env.process(peer())
    env.run()  # a hostile frame used to end it with TypeError or KeyError
    # The session still answers, and s0 still holds control: the
    # well-formed move after the frame is applied.
    assert replies[-1]["op"] == "camera_ok"
    camera = session.renderer.camera
    for vec in (camera.eye, camera.target, camera.up, camera.fov_deg):
        assert np.isfinite(vec).all()
