#!/usr/bin/env python
"""Observability end-to-end: a chaotic cell with the full obs fabric on.

One open-loop admission cell — Poisson arrivals through the
`AdmissionController` onto a 3-site fleet — runs with everything
`repro.obs` offers attached at once:

* causal sim-time spans (session -> admit -> connect -> find/steer-op,
  viz-frame events, fault windows on the fabric lane), exported as a
  Chrome-trace/Perfetto JSONL you can drop into https://ui.perfetto.dev;
* the Prometheus-style metrics registry (the same families `GET
  /metricsz` serves on a live server), dumped as text + JSON snapshot;
* the protection layer: broker/registry circuit breakers, a per-tenant
  inflight quota, and a seeded fault schedule biting mid-run so the
  chaos counters and fault spans have something to show.

Everything here is deterministic: same seeds, same report, same span
stream, same exposition counts, run after run.

Run:  python examples/obs_showcase.py
"""

import json
import tempfile
from pathlib import Path

from repro.chaos import ChaosHarness, FaultSchedule
from repro.fleet import FleetDriver
from repro.load import AdmissionController, PoissonArrivals
from repro.obs import Observability

SEED = 11


def main() -> None:
    print("=" * 72)
    print("An observed, protected, chaotic admission cell")
    print("=" * 72)

    obs = Observability(tracing=True, metrics=True, breakers=True, quota=3)
    driver = FleetDriver(n_sites=3, queue_slots=2, obs=obs)
    controller = AdmissionController(driver, queue_limit=16)  # self-attaches
    world = ChaosHarness(driver, controller)
    world.install(
        FaultSchedule.random(seed=SEED, horizon=14.0, n_faults=3, sites=3)
    )

    report = controller.run(
        PoissonArrivals(rate=0.8, horizon=10.0, seed=7, duration=2.0, cadence=0.5)
    )
    verdict = world.verdict(report)
    print()
    print(report.render())
    print(
        f"\nchaos: {verdict['faults_applied']} faults applied, "
        f"{verdict['invariant_violations']} invariant violations"
    )
    assert verdict["invariant_violations"] == 0

    # -- the causal span tree -------------------------------------------------
    tracer = obs.tracer
    counts = tracer.counts()
    print(f"\nspan stream: {counts}")
    queue = controller.telemetry
    roots = [s for s in tracer.spans if s.name == "session"]
    print(f"  {len(roots)} session roots for {queue.offered} offered "
          f"({queue.admitted} admitted, {queue.rejected} rejected)")
    sample = next(s for s in tracer.spans if s.name == "steer-op")
    chain = " -> ".join(s.name for s in reversed(tracer.ancestry(sample)))
    print(f"  one steer-op's ancestry: {chain}")

    workdir = Path(tempfile.mkdtemp(prefix="obs-"))
    trace_path = workdir / "trace.jsonl"
    n_events = obs.write_trace(trace_path)
    print(f"  Perfetto trace: {n_events} events -> {trace_path}")

    # -- metrics: exposition + snapshot ---------------------------------------
    text = obs.metrics.render()
    lines = text.splitlines()
    print(f"\nPrometheus exposition: {len(lines)} lines, e.g.")
    for needle in ("repro_admission_", "repro_steer_ops_total",
                   "repro_faults_total", "repro_circuit_state",
                   "repro_quota_"):
        line = next(ln for ln in lines if ln.startswith(needle))
        print(f"  {line}")

    snap_path = workdir / "obs.json"
    snap_path.write_text(json.dumps(obs.snapshot(), indent=2, sort_keys=True))
    print(f"snapshot (metrics + breakers + quotas) -> {snap_path}")
    for name, breaker in sorted(obs.breakers.items()):
        s = breaker.snapshot()
        print(f"  breaker {name!r}: state={s['state']} "
              f"success={s['successes']} failure={s['failures']} "
              f"shorted={s['shorted']} transitions={len(s['transitions'])}")

    # Determinism spot-check: a second identical world, identical stream.
    obs2 = Observability(tracing=True, metrics=True, breakers=True, quota=3)
    driver2 = FleetDriver(n_sites=3, queue_slots=2, obs=obs2)
    controller2 = AdmissionController(driver2, queue_limit=16)
    world2 = ChaosHarness(driver2, controller2)
    world2.install(
        FaultSchedule.random(seed=SEED, horizon=14.0, n_faults=3, sites=3)
    )
    controller2.run(
        PoissonArrivals(rate=0.8, horizon=10.0, seed=7, duration=2.0, cadence=0.5)
    )
    again = workdir / "trace-again.jsonl"
    obs2.write_trace(again)
    assert trace_path.read_bytes() == again.read_bytes()
    print("\nsecond same-seed run: span JSONL is byte-identical")


if __name__ == "__main__":
    main()
