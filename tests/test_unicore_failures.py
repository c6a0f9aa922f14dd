"""UNICORE failure-path tests: dead tiers, malformed traffic, timeouts."""

import copy

import pytest

from repro.des import Environment
from repro.errors import TimeoutExpired, UnicoreError
from repro.net import Firewall, Network
from repro.unicore import (
    AbstractJobObject,
    Certificate,
    ExecuteTask,
    Gateway,
    JobStatus,
    NetworkJobSupervisor,
    StageIn,
    TargetSystemInterface,
    UnicoreClient,
    UserIdentity,
)
from repro.unicore.security import TrustStore

GATEWAY_PORT = 4433


def world(register_vsite=True, njs_up=True):
    env = Environment()
    net = Network(env)
    net.add_host("laptop")
    net.add_host("hpc", firewall=Firewall.single_port(GATEWAY_PORT))
    net.add_link("laptop", "hpc", latency=0.01, bandwidth=10e6 / 8)
    gw = Gateway(net.host("hpc"), GATEWAY_PORT, trust=TrustStore({"CA"}),
                 relay_timeout=2.0)
    tsi = TargetSystemInterface(net.host("hpc"))
    njs = NetworkJobSupervisor(net.host("hpc"), 9000, "SITE", tsi)
    njs.register_application("SLEEPER", "sleep")
    if register_vsite:
        gw.register_vsite("SITE", "hpc", 9000)
    gw.start()
    if njs_up:
        njs.start()
    client = UnicoreClient(
        net.host("laptop"), UserIdentity(Certificate("CN=u", "CA"), "u"),
        "hpc", GATEWAY_PORT,
    )
    return env, net, gw, njs, tsi, client


def test_gateway_reports_dead_njs():
    """The vsite is registered but its NJS never started listening: the
    gateway reports it unreachable instead of hanging."""
    env, net, gw, njs, tsi, client = world(njs_up=False)
    result = {}

    def scenario():
        yield from client.connect()
        ajo = AbstractJobObject("j", "SITE")
        ajo.add_task(ExecuteTask("run", "SLEEPER"))
        try:
            yield from client.consign(ajo)
        except UnicoreError as exc:
            result["error"] = str(exc)

    env.process(scenario())
    env.run(until=30.0)
    assert "unreachable" in result["error"]


def test_gateway_rejects_pre_auth_traffic():
    env, net, gw, njs, tsi, client = world()
    result = {}

    def scenario():
        conn = yield from net.host("laptop").connect("hpc", GATEWAY_PORT)
        conn.send({"op": "consign", "vsite": "SITE"})  # no auth first
        reply = yield from conn.recv(timeout=5.0)
        result["reply"] = reply

    env.process(scenario())
    env.run(until=10.0)
    assert result["reply"]["ok"] is False
    assert "auth" in result["reply"]["error"]


def test_gateway_rejects_malformed_request_after_auth():
    env, net, gw, njs, tsi, client = world()
    result = {}

    def scenario():
        yield from client.connect()
        reply = yield from client.request({"op": "status"})  # no vsite
        result["reply"] = reply

    env.process(scenario())
    env.run(until=10.0)
    assert result["reply"]["ok"] is False
    assert "malformed" in result["reply"]["error"]


#: auth certificates the gateway must refuse; a list subject used to sign
#: on as that list
HOSTILE_CERTIFICATES = {
    "missing": None,
    "subject-a-list": {"subject": ["u"], "issuer": "CA"},
    "revoked-a-string": {"subject": "u", "issuer": "CA", "revoked": "no"},
}


@pytest.mark.parametrize(
    "certificate", HOSTILE_CERTIFICATES.values(), ids=HOSTILE_CERTIFICATES.keys()
)
def test_hostile_certificate_is_refused_and_the_gateway_serves_on(certificate):
    env, net, gw, njs, tsi, client = world()
    result = {}

    def scenario():
        conn = yield from net.host("laptop").connect("hpc", GATEWAY_PORT)
        conn.send({"op": "auth", "certificate": certificate})
        result["auth"] = yield from conn.recv(timeout=5.0)
        yield from client.connect()
        msg = {"op": "status", "vsite": "SITE", "job_id": "SITE-job-9"}
        result["status"] = yield from client.request(msg)

    env.process(scenario())
    env.run(until=30.0)
    assert result["auth"]["ok"] is False
    assert result["auth"]["error"].startswith("authentication failed")
    assert gw.auth_failures == 1
    assert "unknown job" in result["status"]["error"]


def test_client_request_before_connect_raises():
    env, net, gw, njs, tsi, client = world()

    def scenario():
        with pytest.raises(UnicoreError, match="not connected"):
            yield from client.request({"op": "status", "vsite": "SITE"})
        return True
        yield  # pragma: no cover

    p = env.process(scenario())
    assert env.run(until=p) is True


def test_wait_for_times_out_on_long_job():
    env, net, gw, njs, tsi, client = world()
    result = {}

    def scenario():
        yield from client.connect()
        ajo = AbstractJobObject("long", "SITE")
        ajo.add_task(ExecuteTask("run", "SLEEPER", wall_time=100.0))
        job_id = yield from client.consign(ajo)
        try:
            yield from client.wait_for("SITE", job_id, poll_interval=0.5,
                                       timeout=3.0)
        except TimeoutExpired as exc:
            result["error"] = str(exc)

    env.process(scenario())
    env.run(until=30.0)
    assert "still running" in result["error"]


def test_session_reconnect_after_close():
    env, net, gw, njs, tsi, client = world()
    result = {}

    def scenario():
        yield from client.connect()
        client.close()
        assert not client.authenticated
        yield from client.connect()
        ajo = AbstractJobObject("j", "SITE")
        ajo.add_task(ExecuteTask("run", "SLEEPER", wall_time=0.5))
        job_id = yield from client.consign(ajo)
        result["job_id"] = job_id

    env.process(scenario())
    env.run(until=30.0)
    assert result["job_id"].startswith("SITE-job-")
    assert gw.sessions_opened == 2


def test_unknown_job_and_file_errors():
    env, net, gw, njs, tsi, client = world()
    result = {}

    def scenario():
        yield from client.connect()
        try:
            yield from client.status("SITE", "SITE-job-999")
        except UnicoreError as exc:
            result["status_err"] = str(exc)
        ajo = AbstractJobObject("j", "SITE")
        ajo.add_task(ExecuteTask("run", "SLEEPER", wall_time=0.2))
        job_id = yield from client.consign(ajo)
        yield from client.wait_for("SITE", job_id, poll_interval=0.2)
        try:
            yield from client.retrieve("SITE", job_id, "nothing.dat")
        except UnicoreError as exc:
            result["retrieve_err"] = str(exc)

    env.process(scenario())
    env.run(until=30.0)
    assert "unknown job" in result["status_err"]
    assert "no outcome file" in result["retrieve_err"]


def _good_ajo():
    ajo = AbstractJobObject("j", "SITE")
    ajo.add_task(StageIn("in", "input.dat", b"data"))
    ajo.add_task(ExecuteTask("run", "SLEEPER", wall_time=0.2), after=["in"])
    return ajo


def _hostile(*path, value):
    """The good AJO's wire form with the value at ``path`` replaced."""
    doc = copy.deepcopy(_good_ajo().to_wire())
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


#: AJO payloads a consign must refuse.  The first four used to end the
#: world with a bare exception (in the decoder, at execution, or as a
#: negative DES timeout); the rest were accepted: an infinite wall time
#: held the job running forever, an undefined dependency failed later as
#: a "dependency cycle", a task missing from the dependencies was dropped
STAGE_OUT = {"_task": "StageOut", "name": "extra", "filename": "x"}
HOSTILE_AJOS = {
    "task-not-an-object": _hostile("tasks", "run", value="xy"),
    "arguments-a-list": _hostile("tasks", "run", "arguments", value=[1]),
    "wall-time-a-string": _hostile("tasks", "run", "wall_time", value="x"),
    "wall-time-negative": _hostile("tasks", "run", "wall_time", value=-5.0),
    "wall-time-infinite": _hostile("tasks", "run", "wall_time", value=float("inf")),
    "undefined-dependency": _hostile("dependencies", "run", value=["in", "ghost"]),
    "task-without-dependencies": _hostile("tasks", "extra", value=STAGE_OUT),
    "stage-in-data-an-int": _hostile("tasks", "in", "data", value=7),
}


@pytest.mark.parametrize("payload", HOSTILE_AJOS.values(), ids=HOSTILE_AJOS.keys())
def test_hostile_ajo_is_refused_and_the_world_runs_on(payload):
    env, net, gw, njs, tsi, client = world()
    result = {}

    def scenario():
        yield from client.connect()
        msg = {"op": "consign", "vsite": "SITE", "ajo": payload}
        result["consign"] = yield from client.request(msg)
        job_id = yield from client.consign(_good_ajo())
        yield from client.wait_for("SITE", job_id, poll_interval=0.2)
        result["status"] = yield from client.status("SITE", job_id)

    env.process(scenario())
    env.run(until=30.0)
    assert result["consign"]["ok"] is False
    assert result["consign"]["error"].startswith("bad AJO")
    assert result["status"][0] is JobStatus.SUCCESSFUL
    assert njs.consigned == 1


@pytest.mark.parametrize("claimed", [-(10**9), 1e15], ids=["negative", "huge"])
def test_a_request_is_sized_by_its_content_not_by_a_claimed_size(claimed):
    """A request's ``_size`` is not the size it costs the gateway's link:
    a negative one used to end the world with a negative DES delay, and a
    huge one held the gateway→NJS link, so another user's request failed
    "vsite unreachable" seconds later instead of being answered."""
    env, net, gw, njs, tsi, client = world()
    other = UnicoreClient(
        net.host("laptop"), UserIdentity(Certificate("CN=v", "CA"), "v"), "hpc", GATEWAY_PORT
    )
    result = {}

    def mallory():
        yield from client.connect()
        msg = {"op": "status", "vsite": "SITE", "job_id": "SITE-job-1", "_size": claimed}
        result["hostile"] = yield from client.request(msg)

    def alice():
        yield from other.connect()
        yield env.timeout(1.0)
        sent = env.now
        reply = yield from other.request({"op": "status", "vsite": "SITE", "job_id": "SITE-job-1"})
        result["other"] = (reply, env.now - sent)

    env.process(mallory())
    env.process(alice())
    env.run(until=30.0)
    assert result["hostile"]["ok"] is False and "_size" in result["hostile"]["error"]
    reply, took = result["other"]
    assert "unknown job" in reply["error"] and took < 0.1
