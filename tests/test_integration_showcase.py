"""Cross-stack integration tests: the showcase paths end-to-end.

These tests wire several subsystems together the way the SC'03 demos did,
asserting on cross-cutting behaviour no unit test covers.
"""

from repro.des import Environment
from repro.net import Firewall, Network
from repro.covise import MapEditor
from repro.ogsa import (
    OgsiLiteContainer,
    ServiceConnection,
    SteeringService,
)
from repro.sims import LatticeBoltzmann3D
from repro.steering import SteeredApplication, steered_app_process
from repro.unicore import (
    AbstractJobObject,
    Certificate,
    ExecuteTask,
    Gateway,
    JobStatus,
    NetworkJobSupervisor,
    StageOut,
    TargetSystemInterface,
    UnicoreClient,
    UserIdentity,
)
from repro.unicore.security import TrustStore
from repro.visit import VisitClient, VisitServer

GATEWAY_PORT = 4433


def test_unicore_launched_simulation_steered_through_ogsa():
    """UNICORE launches the app as a batch job; while the job RUNS, an
    OGSA steering service (fed by a control link out of the job) steers
    it; the job then stages out the final state."""
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

    container = OgsiLiteContainer(net.host("svc"), 8000)
    container.start()
    deployed = {}

    def lb3d_app(env_, host, args, uspace):
        """The incarnated steered application: connects its control link
        OUT to the service host (firewall-friendly direction)."""
        sim = LatticeBoltzmann3D(shape=(8, 8, 8), g=0.5, seed=3)
        app = SteeredApplication(sim, name="lb3d")
        conn = yield from host.connect("svc", 7001)
        app.attach_control(conn)
        steps = yield from steered_app_process(env_, app, compute_time=0.05,
                                               max_steps=args["steps"])
        uspace.write("final.dat", f"{sim.g} {sim.demix_measure()}".encode())
        return steps

    tsi.register_application("lb3d", lb3d_app)
    njs.register_application("LB3D", "lb3d")

    listener = net.host("svc").listen(7001)

    def service_side():
        conn = yield from listener.accept()
        svc = SteeringService("steer", conn, application_name="LB3D")
        container.deploy(svc)
        deployed["ok"] = True

    env.process(service_side())
    result = {}

    def user():
        client = UnicoreClient(
            net.host("user"),
            UserIdentity(Certificate("CN=u", "CA"), "u"),
            "hpc", GATEWAY_PORT,
        )
        yield from client.connect()
        ajo = AbstractJobObject("steered-lb3d", "SITE")
        ajo.add_task(ExecuteTask("run", "LB3D", arguments={"steps": 200},
                                 steered=True))
        ajo.add_task(StageOut("out", "final.dat"), after=["run"])
        job_id = yield from client.consign(ajo)

        while not deployed:
            yield env.timeout(0.1)
        svc_conn = ServiceConnection(net.host("user"), "svc", 8000)
        yield from svc_conn.open()
        yield env.timeout(1.0)
        value = yield from svc_conn.invoke("steer", "set_parameter",
                                           name="g", value=3.0)
        result["steered"] = value
        status = yield from client.wait_for("SITE", job_id,
                                            poll_interval=0.5, timeout=120.0)
        result["status"] = status
        result["outcome"] = (yield from client.retrieve("SITE", job_id,
                                                        "final.dat")).decode()

    env.process(user())
    env.run(until=120.0)
    assert result["steered"] == 3.0
    assert result["status"] is JobStatus.SUCCESSFUL
    g_final, demix_final = result["outcome"].split()
    assert float(g_final) == 3.0
    assert float(demix_final) > 0.3  # the steer took physical effect


def test_visit_sample_feeds_covise_pipeline():
    """LB3D ships its sample over VISIT; the visualization side feeds the
    order-parameter field into a COVISE map whose renderer produces
    actual pixels."""
    env = Environment()
    net = Network(env)
    net.add_host("sim-host")
    net.add_host("viz-host")
    net.add_link("sim-host", "viz-host", latency=0.002, bandwidth=100e6 / 8)

    sim = LatticeBoltzmann3D(shape=(10, 10, 10), g=1.2, seed=4)

    server = VisitServer(net.host("viz-host"), 6000, password="pw")
    server.start()
    client = VisitClient(net.host("sim-host"), "viz-host", 6000, "pw")

    def simulation():
        yield from client.connect(timeout=1.0)
        for _ in range(4):
            yield env.timeout(0.1)
            sim.run(20)
            yield from client.send(1, {"phi": sim.sample()["order_parameter"]})

    env.process(simulation())
    env.run(until=5.0)

    # The visualization host builds a COVISE map over the received field.
    latest = server.received[1][-1]["phi"]
    editor = MapEditor(net)
    editor.add_source("read", "viz-host", lambda: latest)
    editor.add("IsoSurface", "iso", "viz-host", level=float(latest.mean()))
    editor.add("Renderer", "render", "viz-host")
    editor.connect("read", "field", "iso", "field")
    editor.connect("iso", "surface", "render", "surface")

    def run_map():
        yield from editor.controller.execute()

    env.process(run_map())
    env.run(until=10.0)
    frame = editor.controller.output_object("render", "frame")
    assert frame.pixels.shape == (120, 160, 3)
    assert (frame.pixels.sum(axis=2) > 0).any()  # the demixing interface is visible
