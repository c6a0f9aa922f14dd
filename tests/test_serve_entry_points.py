"""Every serving entry point, as one property: no request ends or starves the world.

The world half of ``test_decode_entry_points``.  Each entry below is a
small running world with one server in it, a way to put one request to
that server, and one request the server answers.  Fed that request with
one value somewhere inside it replaced, one key dropped or one added,
the server answers (its own refusal, or an answer when the change left
the request well formed) or closes the connection, ``env.run`` does not
raise, and the same world then answers the good request.  Silence is a
failure: it is how a starved link or a dropped frame looks from outside.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_decode_entry_points import hostile

from repro.accessgrid.vizserver import VizServerSession
from repro.accessgrid.vnc import VncServer
from repro.des import Environment
from repro.errors import ChannelClosed, TimeoutExpired
from repro.live.http import Request
from repro.live.server import LiveServer
from repro.net import Firewall, Network
from repro.ogsa import GridService, OgsiLiteContainer, envelope, open_envelope
from repro.unicore import (
    AbstractJobObject,
    ExecuteTask,
    Gateway,
    NetworkJobSupervisor,
    StageIn,
    StageOut,
    TargetSystemInterface,
)
from repro.unicore.security import TrustStore
from repro.unicore.visit_ext import VisitProxyServer
from repro.visit import (
    ConnectAck,
    ConnectRequest,
    VBroker,
    VisitServer,
    decode_visit,
    encode_visit,
)
from repro.wire import decode, encode

PORT = 4433
PASSWORD = "pw"
#: how long a peer waits for any answer, in virtual seconds
PATIENCE = 5.0
CLOSED = "closed"
SILENT = "silent"


def _net(*hosts, firewall=None):
    env = Environment()
    net = Network(env)
    net.add_host("peer")
    for name in hosts:
        net.add_host(name, firewall=firewall)
        net.add_link("peer", name, latency=0.01, bandwidth=10e6 / 8)
    return env, net


def _exchange(conn, doc, decode_reply=lambda reply: reply):
    """Generator -> the reply to ``doc`` on ``conn``, CLOSED or SILENT."""
    conn.send(doc)
    try:
        return decode_reply((yield from conn.recv(timeout=PATIENCE)))
    except ChannelClosed:
        return CLOSED
    except TimeoutExpired:
        return SILENT
    finally:
        conn.close()


# -- UNICORE: gateway, NJS ops through it, the VISIT proxy's poll ---------------

SIGN_ON = {"op": "auth", "certificate": {"subject": "CN=u", "issuer": "CA"}}


def _unicore():
    """A gateway, its NJS and a VISIT proxy; the user's job ``SITE-job-1``
    has finished with outcome file ``out.dat``."""
    env, net = _net("hpc", firewall=Firewall.single_port(PORT))
    hpc = net.host("hpc")
    gateway = Gateway(hpc, PORT, trust=TrustStore({"CA"}), relay_timeout=2.0)
    tsi = TargetSystemInterface(hpc)
    njs = NetworkJobSupervisor(hpc, 9000, "SITE", tsi)
    njs.register_application("APP", "sleep")
    njs.start()
    tsi.visit_proxy = VisitProxyServer(hpc, 5500, PASSWORD)
    gateway.register_vsite("SITE", "hpc", 9000)
    gateway.start()
    ajo = AbstractJobObject("j", "SITE")
    ajo.add_task(StageIn("in", "out.dat", b"data"))
    ajo.add_task(StageOut("out", "out.dat"), after=["in"])

    def ask(doc, signed_on=True):
        conn = yield from net.host("peer").connect("hpc", PORT)
        if signed_on:
            conn.send(SIGN_ON)
            yield from conn.recv(timeout=PATIENCE)
        return (yield from _exchange(conn, doc))

    def setup():
        yield from ask({"op": "consign", "vsite": "SITE", "ajo": ajo.to_wire()})
        yield env.timeout(1.0)

    env.run(env.process(setup()))
    return env, ask


def _sign_on():
    env, ask = _unicore()
    return env, lambda doc: ask(doc, signed_on=False)


def _consign():
    ajo = AbstractJobObject("k", "SITE")
    ajo.add_task(StageIn("in", "x.dat", b"x"))
    ajo.add_task(ExecuteTask("run", "APP", arguments={"n": 1}), after=["in"])
    return ajo.to_wire()


def _ok(reply):
    return reply["ok"] is True


# -- OGSA, VISIT, AccessGrid ------------------------------------------------------


def _ogsa():
    env, net = _net("grid")
    container = OgsiLiteContainer(net.host("grid"), PORT)
    container.deploy(GridService("svc"))
    container.start()

    def ask(doc):
        conn = yield from net.host("peer").connect("grid", PORT)
        return (yield from _exchange(conn, doc))

    return env, ask


def _visit(server):
    def serve():
        env, net = _net("viz")
        server(net.host("viz")).start()

        def ask(doc):
            conn = yield from net.host("peer").connect("viz", PORT)
            return (yield from _exchange(conn, encode(doc), decode_visit))

        return env, ask

    return serve


def _accessgrid(server):
    def serve():
        env, net = _net("hub")
        server(net.host("hub")).start()

        def ask(doc):
            conn = yield from net.host("peer").connect("hub", PORT)
            return (yield from _exchange(conn, doc))

        return env, ask

    return serve


def _vnc(host):
    vnc = VncServer(host, PORT, width=16, height=12)
    vnc.on_input = lambda event: event.get("widget")  # as the showcase's panel reads it
    return vnc


# -- the live control plane: LiveServer._route, synchronous --------------------


def _live(path):
    def serve():
        server = LiveServer(config={"rate": None, "seed": 0})
        env = server.driver.env
        body = {"sim": "building", "participants": 1, "duration": 30.0}
        post = Request("POST", "/sessions", "HTTP/1.1", body=json.dumps(body).encode())
        _, reply, *_ = server._route(post)
        env.run(until=1.0)
        target = path.format(name=json.loads(reply)["name"])

        def ask(doc):
            body = json.dumps(doc, default=lambda b: b.decode("latin-1")).encode()
            status, reply, *_ = server._route(Request("POST", target, "HTTP/1.1", body=body))
            yield env.timeout(1.0)
            return {"status": status, **json.loads(reply)}

        return env, ask

    return serve


def _answered_2xx(reply):
    return reply["status"] == 202


def _no_5xx(reply):
    return reply["status"] < 500


#: entry -> (world builder, the good request, whether a reply answers it)
SERVING = {
    "gateway-sign-on": (_sign_on, SIGN_ON, _ok),
    "gateway-relay-status": (
        _unicore,
        {"op": "status", "vsite": "SITE", "job_id": "SITE-job-1"},
        _ok,
    ),
    "njs-consign": (_unicore, {"op": "consign", "vsite": "SITE", "ajo": _consign()}, _ok),
    "njs-retrieve": (
        _unicore,
        {"op": "retrieve", "vsite": "SITE", "job_id": "SITE-job-1", "filename": "out.dat"},
        _ok,
    ),
    "njs-proxy-poll": (
        _unicore,
        {
            "op": "proxy_poll",
            "vsite": "SITE",
            "client": "alice",
            "responses": [{"tag": 1, "seq": 0, "payload": [1.0]}],
        },
        _ok,
    ),
    "ogsa-container": (
        _ogsa,
        envelope("svc", "get_service_data", {}),
        lambda reply: open_envelope(reply)[3] == "",
    ),
    **{
        f"visit-{name}": (
            _visit(make),
            decode(encode_visit(ConnectRequest(PASSWORD, "sim"))),
            lambda reply: isinstance(reply, ConnectAck) and reply.ok,
        )
        for name, make in {
            "server": lambda host: VisitServer(host, PORT, PASSWORD),
            "vbroker": lambda host: VBroker(host, PORT, PASSWORD),
            "proxy": lambda host: VisitProxyServer(host, PORT, PASSWORD),
        }.items()
    },
    "vnc": (
        _accessgrid(_vnc),
        {"op": "input", "event": {"widget": "g-slider", "value": 2.0}},
        lambda reply: reply["op"] == "input_ack",
    ),
    "vizserver": (
        _accessgrid(lambda host: VizServerSession(host, PORT, width=16, height=12)),
        {"op": "join", "site": "s1"},
        lambda reply: reply["op"] == "joined",
    ),
    "live-session": (
        _live("/sessions"),
        {"sim": "building", "participants": 1, "duration": 2.0},
        _answered_2xx,
    ),
    "live-steer": (_live("/sessions/{name}/steer"), {"value": 1.5}, _answered_2xx),
}

#: hostile replies the live routes may give: a 4xx (a 2xx when the change
#: left the body well formed), never a 500
ANSWERS = {"live-session": _no_5xx, "live-steer": _no_5xx}


def _serve_then_answer(entry, doc):
    serve, good, answered = SERVING[entry]
    env, ask = serve()
    replies = []

    def peer():
        replies.append((yield from ask(doc)))
        replies.append((yield from ask(copy.deepcopy(good))))

    env.process(peer())
    env.run(until=env.now + 4 * PATIENCE)  # a hostile request used to end it here
    assert len(replies) == 2, replies
    hostile_reply, good_reply = replies
    assert hostile_reply != SILENT
    assert ANSWERS.get(entry, lambda reply: True)(hostile_reply), hostile_reply
    assert good_reply not in (SILENT, CLOSED) and answered(good_reply), good_reply


@pytest.mark.parametrize("entry", sorted(SERVING))
def test_the_good_request_is_answered(entry):
    _serve_then_answer(entry, copy.deepcopy(SERVING[entry][1]))


@pytest.mark.parametrize("entry", sorted(SERVING))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_any_request_is_answered_and_the_world_serves_on(entry, data):
    _serve_then_answer(entry, data.draw(hostile(SERVING[entry][1]), label="request"))


def _with(doc, *path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


_STATUS = SERVING["gateway-relay-status"][1]
#: requests that used to end the world: each raised out of its server
#: and so out of ``env.run``
WORLD_ENDERS = {
    "envelope-service-a-list": (
        "ogsa-container",
        _with(envelope("svc", "x"), "header", "service", value=["svc"]),
    ),
    "vsite-a-list": ("gateway-relay-status", _with(_STATUS, "vsite", value=["SITE"])),
    "job-id-a-list": ("gateway-relay-status", _with(_STATUS, "job_id", value=["SITE-job-1"])),
    "job-id-a-dict": ("gateway-relay-status", _with(_STATUS, "job_id", value={})),
    "size-negative": ("gateway-relay-status", _with(_STATUS, "_size", value=-(10**9))),
    "vnc-event-a-list": ("vnc", _with(SERVING["vnc"][1], "event", value=["g-slider"])),
}


@pytest.mark.parametrize("entry, doc", WORLD_ENDERS.values(), ids=WORLD_ENDERS.keys())
def test_a_request_that_ended_the_world_is_answered(entry, doc):
    _serve_then_answer(entry, doc)
