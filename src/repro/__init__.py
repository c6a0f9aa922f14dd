"""repro: reproduction of "Application Steering in a Collaborative
Environment" (Brooke, Eickermann, Woessner et al., SC2003).

Subpackage map (see DESIGN.md for the full inventory):

* :mod:`repro.des` / :mod:`repro.net` / :mod:`repro.wire` -- the simulated
  Grid fabric: discrete-event kernel, WAN topology, typed wire codec.
* :mod:`repro.steering` -- the paper's core contribution: application
  instrumentation, the control protocol, steering clients, the OGSA-era
  orchestrator.
* :mod:`repro.visit` -- the VISIT toolkit (simulation-as-client,
  timeout-bounded operations, vbroker multiplexer, the master token every
  shared session passes).
* :mod:`repro.unicore` -- three-tier UNICORE middleware plus the VISIT
  proxy extension that tunnels steering through the single gateway port.
* :mod:`repro.ogsa` -- OGSI::Lite hosting environment, registry, the OGSA
  steering and visualization services.
* :mod:`repro.covise` -- data objects, request brokers, module networks,
  collaborative parameter-synchronized sessions.
* :mod:`repro.accessgrid` -- venues, media streams, vnc, VizServer.
* :mod:`repro.sims` -- LB3D, PEPC, building climatization, crowd flow.
* :mod:`repro.viz` -- isosurface and cut-plane extraction, a software
  rasterizer, framebuffer delta/RLE compression.
* :mod:`repro.parallel` -- the space-filling-curve domain decomposition
  behind PEPC's per-processor tree domains.
* :mod:`repro.workloads` -- 2003-era network profiles, feedback-loop cost
  models, canned multi-site scenarios.
* :mod:`repro.fleet` -- the session-fleet engine: declarative scenario
  specs, a driver running hundreds of concurrent sessions, sharded
  registry federation, vbroker pooling, mergeable telemetry.
* :mod:`repro.load` -- open-loop traffic on top of the fleet: seeded
  arrival processes, bounded-queue admission control with per-class
  SLOs, placement policies, reactive autoscaling of sites and shards.
* :mod:`repro.chaos` -- seeded fault injection (outages, partitions,
  crashes, lockdowns), per-session recovery orchestration
  (retry/migrate/degrade/abandon) and continuous invariant checking.
* :mod:`repro.campaign` -- the experiment engine: scenario-matrix
  campaigns and adaptive searches over workloads x arrivals x faults x
  policies, run by supervised workers into a resumable results store.
* :mod:`repro.live` -- the real-time control plane: the same fabric
  paced against the wall clock, steered over HTTP, with every arrival
  traced for deterministic campaign replay.
* :mod:`repro.obs` -- causal span trees, a Prometheus-style metrics
  registry, and circuit breakers, quotas and backpressure.
* :mod:`repro.perf` -- the bench envelope and the regression gate.
"""

__version__ = "1.0.0"

__all__ = [
    "des",
    "net",
    "wire",
    "steering",
    "visit",
    "unicore",
    "ogsa",
    "covise",
    "accessgrid",
    "sims",
    "viz",
    "parallel",
    "workloads",
    "fleet",
    "load",
    "chaos",
    "campaign",
    "live",
    "obs",
    "perf",
    "util",
    "errors",
]
