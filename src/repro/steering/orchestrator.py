"""The RealityGrid orchestrator: UNICORE launch + OGSA service wiring.

Section 2.2: "The orchestration of the compute and visualization servers
and the file transfer was handled by UNICORE ...  This allowed the
application to simulate the behaviour of a possible OGSA service before
the OGSI working group had formulated its standards recommendations."

:class:`RealityGridOrchestrator` packages that whole workflow: it
consigns the steered application as a UNICORE job on the compute vsite,
accepts the application's outbound control/sample links on the service
host, deploys the steering + visualization services into an OGSI::Lite
container, publishes them to the registry, and binds the handle resolver
— leaving the user with nothing to do but `find -> bind -> steer`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SteeringError

# The ogsa/unicore imports happen inside the methods: the steering package
# must stay importable on its own (ogsa's services import steering.control,
# so eager imports here would be circular).


class RealityGridOrchestrator:
    """Wires one steered application into the full Figure 1/2 fabric.

    Parameters
    ----------
    unicore_client:
        An authenticated client whose gateway fronts the compute vsite.
    container:
        The OGSI::Lite container on the visualization/service host.
    resolver:
        The handle resolver shared with steering clients.
    control_port / sample_port:
        Ports on the container host where the launched application will
        connect its control and sample links (outbound from the HPC
        centre: firewall-friendly).
    """

    def __init__(
        self,
        unicore_client,
        container,
        resolver,
        control_port: int = 7001,
        sample_port: int = 7002,
    ) -> None:
        self.unicore = unicore_client
        self.container = container
        self.resolver = resolver
        self.control_port = control_port
        self.sample_port = sample_port
        self.job_id: Optional[str] = None
        self.handles: dict[str, str] = {}
        #: per-sample callback ``cb(step)`` handed to the deployed
        #: visualization service (observability's viz-frame span events);
        #: None — the default — deploys the service exactly as before
        self.on_viz_frame: Optional[Callable[[int], None]] = None

    def launch(
        self,
        application: str,
        vsite: str,
        arguments: Optional[dict] = None,
        job_name: str = "realitygrid",
    ):
        """Generator: run the whole orchestration; resolves to the
        published handle strings ``{"steering": gsh, "viz": gsh}``.

        The incarnated application is expected to open two outbound
        connections to the container host (control then samples) — the
        contract the RealityGrid API imposes on instrumented codes.
        """
        from repro.ogsa.container import ServiceConnection
        from repro.ogsa.registry import REGISTRY_ID
        from repro.ogsa.steering_service import SteeringService
        from repro.ogsa.viz_service import VisualizationService
        from repro.unicore.ajo import AbstractJobObject, ExecuteTask

        svc_host = self.container.host
        control_listener = svc_host.listen(self.control_port)
        sample_listener = svc_host.listen(self.sample_port)

        # 1. Consign the job through the gateway.
        ajo = AbstractJobObject(job_name, vsite)
        ajo.add_task(
            ExecuteTask("run", application, arguments=dict(arguments or {}),
                        steered=True)
        )
        self.job_id = yield from self.unicore.consign(ajo)

        # 2. Accept the application's outbound links.
        control_conn = yield from control_listener.accept(timeout=60.0)
        sample_conn = yield from sample_listener.accept(timeout=60.0)
        control_listener.close()
        sample_listener.close()

        # 3. Deploy + publish the services.
        steer = SteeringService(f"steer-{job_name}", control_conn, application_name=application)
        viz = VisualizationService(f"viz-{job_name}", sample_conn)
        if self.on_viz_frame is not None:
            viz.on_frame = self.on_viz_frame
        steer_ref = self.container.deploy(steer)
        viz_ref = self.container.deploy(viz)
        self.resolver.bind(steer_ref)
        self.resolver.bind(viz_ref)

        reg_conn = ServiceConnection(
            svc_host, svc_host.name, self.container.port
        )
        yield from reg_conn.open()
        yield from reg_conn.invoke(
            REGISTRY_ID, "publish", handle=str(steer_ref.handle),
            metadata={"type": "steering", "application": application,
                      "job": self.job_id},
        )
        yield from reg_conn.invoke(
            REGISTRY_ID, "publish", handle=str(viz_ref.handle),
            metadata={"type": "viz-steering", "application": application,
                      "job": self.job_id},
        )
        reg_conn.close()
        self.handles = {"steering": str(steer_ref.handle),
                        "viz": str(viz_ref.handle)}
        return dict(self.handles)

    def job_status(self, vsite: str):
        """Generator -> (JobStatus, task states) for the launched job."""
        if self.job_id is None:
            raise SteeringError("no job launched yet")
        result = yield from self.unicore.status(vsite, self.job_id)
        return result


def make_outbound_app_factory(
    sim_factory: Callable[[], object],
    service_host_name: str,
    control_port: int = 7001,
    sample_port: int = 7002,
    compute_time: float = 0.05,
    sample_interval: int = 2,
    max_steps: int = 10_000,
):
    """Build a TSI application factory implementing the orchestrator's
    link contract: the incarnated app dials out to the service host and
    runs its instrumented loop until stopped.
    """
    from repro.steering.api import SteeredApplication
    from repro.steering.runner import steered_app_process

    def factory(env, host, args, uspace):
        sim = sim_factory()
        app = SteeredApplication(sim, name=args.get("name", "app"),
                                 sample_interval=sample_interval)
        conn = yield from host.connect(service_host_name, control_port)
        app.attach_control(conn)
        conn = yield from host.connect(service_host_name, sample_port)
        app.attach_sample_sink(conn)
        steps = yield from steered_app_process(
            env, app, compute_time=compute_time,
            max_steps=args.get("steps", max_steps),
        )
        return steps

    return factory
