"""Orchestrator tests: one call stands up the whole Figure 1/2 fabric."""

from repro.des import Environment
from repro.net import Firewall, Network
from repro.ogsa import (
    HandleResolver,
    OgsaSteeringClient,
    OgsiLiteContainer,
    RegistryService,
)
from repro.sims import LatticeBoltzmann3D
from repro.steering.orchestrator import (
    RealityGridOrchestrator,
    make_outbound_app_factory,
)
from repro.unicore import (
    Certificate,
    Gateway,
    JobStatus,
    NetworkJobSupervisor,
    TargetSystemInterface,
    UnicoreClient,
    UserIdentity,
)
from repro.unicore.security import TrustStore

GATEWAY_PORT = 4433


def build_world():
    env = Environment()
    net = Network(env)
    net.add_host("hpc", firewall=Firewall.single_port(GATEWAY_PORT))
    net.add_host("svc")
    net.add_host("user")
    net.add_link("user", "hpc", latency=0.01, bandwidth=10e6 / 8)
    net.add_link("user", "svc", latency=0.005, bandwidth=10e6 / 8)
    net.add_link("svc", "hpc", latency=0.008, bandwidth=100e6 / 8)

    trust = TrustStore({"CA"})
    gw = Gateway(net.host("hpc"), GATEWAY_PORT, trust=trust)
    tsi = TargetSystemInterface(net.host("hpc"))
    njs = NetworkJobSupervisor(net.host("hpc"), 9000, "SITE", tsi)
    gw.register_vsite("SITE", "hpc", 9000)
    gw.start()
    njs.start()

    factory = make_outbound_app_factory(
        lambda: LatticeBoltzmann3D(shape=(8, 8, 8), g=0.5, seed=5),
        service_host_name="svc",
        compute_time=0.05,
    )
    tsi.register_application("lb3d", factory)
    njs.register_application("LB3D", "lb3d")

    container = OgsiLiteContainer(net.host("svc"), 8000)
    container.deploy(RegistryService())
    container.start()
    resolver = HandleResolver()

    uc = UnicoreClient(
        net.host("user"), UserIdentity(Certificate("CN=u", "CA"), "u"),
        "hpc", GATEWAY_PORT,
    )
    orch = RealityGridOrchestrator(uc, container, resolver)
    return env, net, orch, resolver, uc


def test_orchestrator_launch_publish_steer():
    env, net, orch, resolver, uc = build_world()
    outcome = {}

    def scenario():
        yield from uc.connect()
        handles = yield from orch.launch("LB3D", "SITE",
                                         arguments={"steps": 400},
                                         job_name="demo")
        outcome["handles"] = handles

        # A pure OGSA user: registry -> bind -> steer; no UNICORE contact.
        client = OgsaSteeringClient(net.host("user"), resolver, "svc", 8000)
        found = yield from client.find_services(application="LB3D")
        outcome["found"] = {e["metadata"]["type"]: e["handle"] for e in found}
        steer = outcome["found"]["steering"]
        yield from client.bind(steer)
        value = yield from client.invoke(steer, "set_parameter",
                                         name="g", value=2.5)
        outcome["steered"] = value
        status = yield from client.invoke(steer, "get_status")
        outcome["status"] = status

        job = yield from orch.unicore.status("SITE", orch.job_id)
        outcome["job"] = job[0]
        yield from client.invoke(steer, "stop")
        client.close()

    env.process(scenario())
    env.run(until=60.0)
    assert set(outcome["handles"]) == {"steering", "viz"}
    assert outcome["found"]["steering"] == outcome["handles"]["steering"]
    assert outcome["steered"] == 2.5
    assert outcome["status"]["parameters"]["g"] == 2.5
    assert outcome["job"] is JobStatus.RUNNING
    # Registry metadata ties services to the UNICORE job.
    assert orch.job_id is not None


def test_orchestrated_job_completes_when_stopped():
    env, net, orch, resolver, uc = build_world()
    outcome = {}

    def scenario():
        yield from uc.connect()
        handles = yield from orch.launch("LB3D", "SITE",
                                         arguments={"steps": 30},
                                         job_name="short")
        # Let the bounded job run out on its own.
        status = yield from uc.wait_for("SITE", orch.job_id,
                                        poll_interval=0.5, timeout=60.0)
        outcome["status"] = status

    env.process(scenario())
    env.run(until=120.0)
    assert outcome["status"] is JobStatus.SUCCESSFUL
