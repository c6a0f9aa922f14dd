"""Hostile VISIT input, as a property: no frame ends the world.

VISIT's contract (paper section 3.2) is that a broken peer can never harm
the simulation.  Every server end here (the visualization server, the
vbroker and the UNICORE extension's proxy) must refuse a bad first frame
with a ``ConnectAck(ok=False)`` and close, close on a bad later frame,
and keep ``env.run()`` alive; a client whose peer answers garbage must
fail the operation, never raise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.errors import ChannelClosed, TimeoutExpired
from repro.net import Network
from repro.unicore.visit_ext import VisitProxyServer
from repro.visit import (
    ConnectAck,
    ConnectRequest,
    DataRequest,
    DataResponse,
    DataSend,
    VBroker,
    VisitClient,
    VisitClose,
    VisitServer,
    decode_visit,
    encode_visit,
)
from repro.wire import encode

PASSWORD = "pw"
PORT = 5000

SERVERS = {
    "visit-server": lambda host: VisitServer(host, PORT, PASSWORD),
    "vbroker": lambda host: VBroker(host, PORT, PASSWORD),
    "visit-proxy": lambda host: VisitProxyServer(host, PORT, PASSWORD),
}


def world():
    env = Environment()
    net = Network(env)
    net.add_host("sim")
    net.add_host("viz")
    net.add_link("sim", "viz", latency=0.002, bandwidth=1e6)
    return env, net


def _frames(*msgs):
    return [encode_visit(m) for m in msgs]


#: bytes that do not decode to a VISIT message: noise, a non-UTF-8 string,
#: lists nested past the stack, and well-formed structs a codec refuses
GARBAGE = st.one_of(
    st.binary(max_size=48),
    st.sampled_from([
        b"\xff",
        bytes([0, 5, 2, 0, 0, 0, 0xC3, 0x28]),
        bytes([0]) + bytes([9, 1, 0, 0, 0]) * 5000 + bytes([0]),
        encode({"no": "kind"}),
        encode({"_kind": [1]}),
        encode({"_kind": "DataSend", "tag": [1], "payload": 0, "seq": 0, "description": ""}),
        encode({"_kind": "DataRequest", "tag": 1, "seq": "one"}),
        encode({"_kind": "DataRequest", "tag": 1, "seq": 0, "bogus": 1}),
        encode({"_kind": "ConnectRequest", "password": 7}),
        # a bool is not an int, and a float field is finite (the second
        # is a steering message, which VISIT refuses by its kind too)
        encode({"_kind": "DataRequest", "tag": True, "seq": False}),
        encode({"_kind": "StatusReport", "step": 1, "time": float("nan")}),
    ]),
)
#: first frames a server must refuse: garbage, the wrong kind, a wrong password
BAD_FIRST = st.one_of(GARBAGE, st.sampled_from(_frames(
    ConnectRequest("wrong"), ConnectAck(True), DataSend(1, 0), DataRequest(1),
    DataResponse(1, 1, True), VisitClose(),
)))
#: later frames a server must close on: garbage, or a kind no server receives
BAD_LATER = st.one_of(GARBAGE, st.sampled_from(_frames(
    ConnectRequest(PASSWORD), ConnectRequest("wrong"), ConnectAck(True),
    DataResponse(1, 1, True),
)))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(SERVERS)), first=st.booleans(), data=st.data())
def test_hostile_frame_is_refused_or_closed(kind, first, data):
    frame = data.draw(BAD_FIRST if first else BAD_LATER, label="frame")
    env, net = world()
    SERVERS[kind](net.host("viz")).start()
    seen = {}

    def peer():
        conn = yield from net.host("sim").connect("viz", PORT, timeout=1.0)
        if not first:
            conn.send(encode_visit(ConnectRequest(PASSWORD)))
            assert decode_visit((yield from conn.recv(timeout=1.0))).ok
        conn.send(frame)
        replies = []
        try:
            while True:
                replies.append(decode_visit((yield from conn.recv(timeout=5.0))))
        except ChannelClosed:
            seen["replies"] = replies

    env.process(peer())
    env.run()  # a hostile frame used to end it with CodecError
    if first:
        assert [type(r) for r in seen["replies"]] == [ConnectAck]
        assert seen["replies"][0].ok is False
    else:
        assert seen["replies"] == []


#: what a broken server answers to a ConnectRequest
BAD_ACK = st.one_of(GARBAGE, st.sampled_from(_frames(
    ConnectAck(False, "no"), DataResponse(1, 1, True), VisitClose(), ConnectRequest(PASSWORD),
)))
#: what a broken server answers to the first DataRequest (seq 1)
BAD_REPLY = st.one_of(GARBAGE, st.sampled_from(_frames(
    ConnectAck(True), VisitClose(), DataResponse(1, 2, True, payload=5),
    DataResponse(1, 1, False, reason="no"),
)))


@settings(max_examples=60, deadline=None)
@given(during=st.sampled_from(["connect", "request"]), data=st.data())
def test_visit_client_fails_cleanly_when_its_peer_answers_garbage(during, data):
    answer = data.draw(BAD_ACK if during == "connect" else BAD_REPLY, label="answer")
    env, net = world()

    def broken_server(conn):
        try:
            yield from conn.recv(timeout=1.0)
            if during == "request":
                conn.send(encode_visit(ConnectAck(True)))
                yield from conn.recv(timeout=1.0)
            conn.send(answer)
            yield from conn.recv(timeout=5.0)
        except (ChannelClosed, TimeoutExpired):
            pass

    net.host("viz").serve(PORT, broken_server)
    client = VisitClient(net.host("sim"), "viz", PORT, PASSWORD)
    out = {}

    def sim():
        out["connect"] = yield from client.connect(timeout=1.0)
        if during == "request":
            out["request"] = yield from client.request(1, timeout=1.0)

    env.process(sim())
    env.run()
    if during == "connect":
        assert out["connect"] is False
    else:
        assert out["connect"] is True
        assert out["request"] == (False, None)
