#!/usr/bin/env python
"""The RealityGrid demonstration (paper section 2, Figures 1-2).

The full Figure 1 + Figure 2 pipeline on the simulated testbed:

* LB3D runs on the UCL Onyx (behind a single-port firewall);
* the OGSA steering + visualization services live in an OGSI::Lite
  container on the Manchester visualization host;
* the user on the SC conference floor contacts the *registry*, chooses
  the services, binds them, and steers the miscibility;
* the visualization service isosurfaces each sample and serves
  VizServer-style compressed frames — only bitmaps cross the WAN.

Run:  python examples/realitygrid_lb3d.py
"""

from repro.ogsa import (
    HandleResolver,
    OgsaSteeringClient,
    OgsiLiteContainer,
    RegistryService,
    ServiceConnection,
    SteeringService,
    VisualizationService,
)
from repro.sims import LatticeBoltzmann3D
from repro.steering import SteeredApplication, steered_app_process
from repro.viz import decompress_frame
from repro.workloads import realitygrid_testbed


def main() -> None:
    env, net = realitygrid_testbed()
    print("Testbed hosts:", ", ".join(sorted(net.hosts)))

    # --- the application on the compute host -------------------------------
    sim = LatticeBoltzmann3D(shape=(16, 16, 16), g=0.5, seed=7)
    app = SteeredApplication(sim, name="lb3d", sample_interval=2)

    # --- wire app <-> services over the network ---------------------------------
    wired = {}
    control_listener = net.host("man-bezier").listen(7001)
    sample_listener = net.host("man-bezier").listen(7002)

    def accept_links():
        wired["control"] = yield from control_listener.accept()
        wired["samples"] = yield from sample_listener.accept()

    def connect_links():
        conn = yield from net.host("ucl-onyx").connect("man-bezier", 7001)
        app.attach_control(conn)
        conn = yield from net.host("ucl-onyx").connect("man-bezier", 7002)
        app.attach_sample_sink(conn)

    env.process(accept_links())
    env.process(connect_links())

    # --- the service fabric on the viz host ------------------------------------
    container = OgsiLiteContainer(net.host("man-bezier"), 8000)
    registry = RegistryService()
    container.deploy(registry)
    container.start()
    resolver = HandleResolver()

    def deploy_services():
        while "control" not in wired or "samples" not in wired:
            yield env.timeout(0.01)
        steer_ref = container.deploy(
            SteeringService("steer-lb3d", wired["control"],
                            application_name="LB3D")
        )
        viz_ref = container.deploy(
            VisualizationService("viz-lb3d", wired["samples"])
        )
        resolver.bind(steer_ref)
        resolver.bind(viz_ref)
        conn = ServiceConnection(net.host("man-bezier"), "man-bezier", 8000)
        yield from conn.open()
        yield from conn.invoke("registry", "publish", handle=str(steer_ref.handle),
                               metadata={"type": "steering", "application": "LB3D"})
        yield from conn.invoke("registry", "publish", handle=str(viz_ref.handle),
                               metadata={"type": "viz-steering",
                                         "application": "LB3D"})
        conn.close()
        print(f"[{env.now:7.3f}s] services deployed + published to the registry")

    env.process(deploy_services())
    env.process(steered_app_process(env, app, compute_time=0.25))

    # --- the user on the conference floor -------------------------------------------
    def user():
        yield env.timeout(2.0)
        client = OgsaSteeringClient(net.host("floor-laptop"), resolver,
                                    "man-bezier", 8000)
        found = yield from client.find_services(application="LB3D")
        print(f"[{env.now:7.3f}s] registry found: "
              + ", ".join(e["handle"] for e in found))
        steer = next(e["handle"] for e in found
                     if e["metadata"]["type"] == "steering")
        viz = next(e["handle"] for e in found
                   if e["metadata"]["type"] == "viz-steering")
        yield from client.bind(steer)
        yield from client.bind(viz)

        status = yield from client.invoke(steer, "get_status")
        print(f"[{env.now:7.3f}s] status: step={status['step']} "
              f"g={status['parameters']['g']} "
              f"demix={status['observables']['demix']:.4f}")

        print(f"[{env.now:7.3f}s] steering miscibility g: 0.5 -> 3.0")
        yield from client.invoke(steer, "set_parameter", name="g", value=3.0)

        yield from client.invoke(viz, "set_view", eye=[0.0, -3.0, 0.0],
                                 target=[0.0, 0.0, 0.0])
        prev = None  # the client keeps the previous frame: deltas only
        for shot in range(4):
            yield env.timeout(8.0)
            status = yield from client.invoke(steer, "get_status")
            info = yield from client.invoke(viz, "render_frame")
            frame = decompress_frame(info["frame"], previous=prev)
            prev = frame
            lit = (frame.color.sum(axis=2) > 0).mean()
            print(f"[{env.now:7.3f}s] step={status['step']:4d} "
                  f"demix={status['observables']['demix']:.4f} "
                  f"isosurface tris={info['triangles']:6d} "
                  f"frame={len(info['frame'])}B "
                  f"(raw {info['raw_bytes']}B) lit={lit:.0%}")
        yield from client.invoke(steer, "stop")
        client.close()

    env.process(user())
    env.run(until=60.0)

    print(f"\nFinal state: step={sim.step_count}, demix={sim.demix_measure():.4f}")
    print(f"WAN bytes UCL<->Manchester: {net.bytes_between('ucl-onyx', 'man-bezier')}")
    print(f"WAN bytes Manchester<->floor: "
          f"{net.bytes_between('man-bezier', 'floor-laptop')}")
    assert sim.demix_measure() > 0.2


if __name__ == "__main__":
    main()
