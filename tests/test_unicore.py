"""UNICORE middleware tests: AJO, security, gateway, NJS, TSI, client."""

import pytest

from repro.des import Environment
from repro.errors import AuthenticationError, UnicoreError
from repro.net import Firewall, Network
from repro.unicore import (
    AbstractJobObject,
    Certificate,
    ExecuteTask,
    Gateway,
    JobStatus,
    NetworkJobSupervisor,
    StageIn,
    StageOut,
    TargetSystemInterface,
    UnicoreClient,
    USpace,
    UserIdentity,
)
from repro.unicore.security import TrustStore

GATEWAY_PORT = 4433


def build_grid(queue_slots=2):
    """User laptop + HPC centre (gateway/NJS/TSI) behind a firewall."""
    env = Environment()
    net = Network(env)
    net.add_host("laptop")
    net.add_host("hpc", firewall=Firewall.single_port(GATEWAY_PORT))
    net.add_link("laptop", "hpc", latency=0.01, bandwidth=10e6 / 8)

    trust = TrustStore({"UK-eScience-CA"})
    gw = Gateway(net.host("hpc"), GATEWAY_PORT, trust=trust)
    tsi = TargetSystemInterface(net.host("hpc"), queue_slots=queue_slots)
    njs = NetworkJobSupervisor(net.host("hpc"), 9000, "JUELICH", tsi)
    njs.register_application("SLEEPER", "sleep")
    gw.register_vsite("JUELICH", "hpc", 9000)
    gw.start()
    njs.start()

    identity = UserIdentity(
        Certificate(subject="CN=John Brooke", issuer="UK-eScience-CA"),
        xlogin="jbrooke",
    )
    client = UnicoreClient(net.host("laptop"), identity, "hpc", GATEWAY_PORT)
    return env, net, gw, njs, tsi, client


# -- AJO ------------------------------------------------------------------


def test_ajo_dag_order_respects_dependencies():
    ajo = AbstractJobObject("test", "SITE")
    ajo.add_task(StageIn("in", "input.dat", b"data"))
    ajo.add_task(ExecuteTask("run", "APP"), after=["in"])
    ajo.add_task(StageOut("out", "result.dat"), after=["run"])
    order = ajo.execution_order()
    assert order.index("in") < order.index("run") < order.index("out")


def test_ajo_rejects_duplicate_and_unknown_deps():
    ajo = AbstractJobObject("test", "SITE")
    ajo.add_task(ExecuteTask("a", "APP"))
    with pytest.raises(UnicoreError):
        ajo.add_task(ExecuteTask("a", "APP"))
    with pytest.raises(UnicoreError):
        ajo.add_task(ExecuteTask("b", "APP"), after=["zzz"])


def test_ajo_wire_roundtrip():
    ajo = AbstractJobObject("demo", "JUELICH")
    ajo.add_task(StageIn("in", "x.dat", b"\x00\x01"))
    ajo.add_task(
        ExecuteTask("run", "PEPC", arguments={"n": 100}, wall_time=5.0, steered=True),
        after=["in"],
    )
    out = AbstractJobObject.from_wire(ajo.to_wire())
    assert out.job_name == "demo" and out.vsite == "JUELICH"
    assert out.tasks["run"].application == "PEPC"
    assert out.tasks["run"].steered is True
    assert out.dependencies["run"] == {"in"}
    assert out.tasks["in"].data == b"\x00\x01"


def test_ajo_from_wire_rejects_garbage():
    with pytest.raises(UnicoreError):
        AbstractJobObject.from_wire({"job_name": "x"})


# -- security -------------------------------------------------------------


def test_trust_store_authenticates_known_issuer():
    trust = TrustStore({"CA-1"})
    cert = Certificate("CN=alice", "CA-1")
    assert trust.authenticate(cert) == "CN=alice"


def test_trust_store_rejects_unknown_and_revoked():
    trust = TrustStore({"CA-1"})
    with pytest.raises(AuthenticationError):
        trust.authenticate(Certificate("CN=mallory", "EVIL-CA"))
    with pytest.raises(AuthenticationError):
        trust.authenticate(Certificate("CN=alice", "CA-1", revoked=True))


# -- uspace ---------------------------------------------------------------


def test_uspace_basics():
    u = USpace("job-1")
    u.write("a.dat", b"123")
    assert u.read("a.dat") == b"123"
    with pytest.raises(UnicoreError):
        u.read("missing")
    with pytest.raises(UnicoreError):
        u.write("../escape", b"")
    with pytest.raises(UnicoreError):
        u.write("/abs", b"")


# -- end-to-end job lifecycle ----------------------------------------------------


def test_full_job_lifecycle_stagein_execute_stageout():
    env, net, gw, njs, tsi, client = build_grid()
    result = {}

    def scenario():
        yield from client.connect()
        ajo = AbstractJobObject("demo", "JUELICH")
        ajo.add_task(StageIn("in", "input.dat", b"payload"))
        ajo.add_task(ExecuteTask("run", "SLEEPER", wall_time=3.0), after=["in"])
        ajo.add_task(StageOut("out", "input.dat"), after=["run"])
        job_id = yield from client.consign(ajo)
        result["job_id"] = job_id
        status = yield from client.wait_for("JUELICH", job_id, poll_interval=0.5)
        result["status"] = status
        data = yield from client.retrieve("JUELICH", job_id, "input.dat")
        result["data"] = data
        result["done_at"] = env.now

    env.process(scenario())
    env.run()
    assert result["status"] is JobStatus.SUCCESSFUL
    assert result["data"] == b"payload"
    assert result["done_at"] >= 3.0  # the wall time actually elapsed
    assert gw.requests_relayed > 0


def test_firewall_blocks_direct_njs_access_but_gateway_passes():
    """The single-port property the whole design leans on."""
    env, net, gw, njs, tsi, client = build_grid()
    from repro.errors import FirewallBlocked

    outcomes = {}

    def scenario():
        try:
            yield from net.host("laptop").connect("hpc", 9000)  # direct to NJS
        except FirewallBlocked:
            outcomes["direct_blocked"] = True
        yield from client.connect()
        outcomes["via_gateway"] = client.authenticated

    env.process(scenario())
    env.run()
    assert outcomes == {"direct_blocked": True, "via_gateway": True}


def test_untrusted_certificate_rejected_at_gateway():
    env, net, gw, njs, tsi, _ = build_grid()
    mallory = UnicoreClient(
        net.host("laptop"),
        UserIdentity(Certificate("CN=mallory", "EVIL-CA"), "mallory"),
        "hpc",
        GATEWAY_PORT,
    )
    result = {}

    def scenario():
        try:
            yield from mallory.connect()
        except UnicoreError as exc:
            result["error"] = str(exc)

    env.process(scenario())
    env.run()
    assert "sign-on failed" in result["error"]
    assert gw.auth_failures == 1


def test_job_with_unknown_application_rejected_at_consignment():
    env, net, gw, njs, tsi, client = build_grid()
    result = {}

    def scenario():
        yield from client.connect()
        ajo = AbstractJobObject("bad", "JUELICH")
        ajo.add_task(ExecuteTask("run", "NO-SUCH-APP"))
        try:
            yield from client.consign(ajo)
        except UnicoreError as exc:
            result["error"] = str(exc)

    env.process(scenario())
    env.run()
    assert "cannot incarnate" in result["error"]


def test_unknown_vsite_reported():
    env, net, gw, njs, tsi, client = build_grid()
    result = {}

    def scenario():
        yield from client.connect()
        ajo = AbstractJobObject("x", "NOWHERE")
        try:
            yield from client.consign(ajo)
        except UnicoreError as exc:
            result["error"] = str(exc)

    env.process(scenario())
    env.run()
    assert "unknown vsite" in result["error"]


def test_job_isolation_between_users():
    env, net, gw, njs, tsi, client = build_grid()
    other = UnicoreClient(
        net.host("laptop"),
        UserIdentity(Certificate("CN=other", "UK-eScience-CA"), "other"),
        "hpc",
        GATEWAY_PORT,
    )
    result = {}

    def scenario():
        yield from client.connect()
        ajo = AbstractJobObject("mine", "JUELICH")
        ajo.add_task(ExecuteTask("run", "SLEEPER", wall_time=0.5))
        job_id = yield from client.consign(ajo)
        yield from other.connect()
        try:
            yield from other.status("JUELICH", job_id)
        except UnicoreError as exc:
            result["error"] = str(exc)

    env.process(scenario())
    env.run()
    assert "belongs to" in result["error"]


def test_batch_queue_serializes_jobs():
    env, net, gw, njs, tsi, client = build_grid(queue_slots=1)
    result = {}

    def scenario():
        yield from client.connect()
        ids = []
        for i in range(3):
            ajo = AbstractJobObject(f"j{i}", "JUELICH")
            ajo.add_task(ExecuteTask("run", "SLEEPER", wall_time=2.0))
            ids.append((yield from client.consign(ajo)))
        for job_id in ids:
            yield from client.wait_for("JUELICH", job_id, poll_interval=0.25)
        result["all_done_at"] = env.now

    env.process(scenario())
    env.run()
    # One slot, three 2 s jobs: at least 6 s of serialized compute.
    assert result["all_done_at"] >= 6.0


def test_incarnation_produces_site_script():
    env, net, gw, njs, tsi, client = build_grid()
    task = ExecuteTask("run", "SLEEPER", wall_time=1.0)
    inc = njs.incarnate(task, owner="jbrooke")
    assert inc.handler == "sleep"
    assert "perl" in inc.script
    assert "xlogin=jbrooke" in inc.script
    with pytest.raises(Exception):
        njs.incarnate(ExecuteTask("r", "MISSING"), owner="x")


def test_failed_task_marks_job_failed():
    env, net, gw, njs, tsi, client = build_grid()

    def exploding_app(env_, host, args, uspace):
        yield env_.timeout(0.1)
        raise RuntimeError("segfault")

    tsi.register_application("boom", exploding_app)
    njs.register_application("EXPLODER", "boom")
    result = {}

    def scenario():
        yield from client.connect()
        ajo = AbstractJobObject("bad", "JUELICH")
        ajo.add_task(ExecuteTask("run", "EXPLODER"))
        job_id = yield from client.consign(ajo)
        status = yield from client.wait_for("JUELICH", job_id, poll_interval=0.2)
        result["status"] = status
        s, tasks = yield from client.status("JUELICH", job_id)
        result["tasks"] = tasks

    env.process(scenario())
    env.run()
    assert result["status"] is JobStatus.FAILED
    assert result["tasks"]["run"] == "running"  # failed mid-run
