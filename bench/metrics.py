"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names with their direction and bound;
``bench/test_bench_smoke.py`` holds the two together.
"""

from __future__ import annotations

import re

from bench.probes import PROBES
from bench.tracer import LAYERS

#: end-to-end metric -> unit (printed with ``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: exact counters read from public objects after a repetition; a
#: workload that has no such object reads 0
COUNTERS = (
    "des.events",
    "fleet.sessions_completed",
    "fleet.steer_ops",
    "fleet.steer_errors",
    "fleet.sim_makespan_s",
    "fleet.sim_steer_p50_ms",
    "fleet.sim_steer_p99_ms",
    "campaign.cells",
    "campaign.violations",
    "campaign.store.bytes",
    "campaign.store.bytes_written",
    "load.offered",
    "load.admitted",
    "load.rejected",
    "live.requests",
    "live.status_2xx",
    "live.status_409",
    "live.status_429",
    "live.trace.records",
    "live.trace.bytes",
    "live.pacing.events",
    "live.pacing.ticks",
    "live.pacing.catchups",
    "live.pacing.stepping_ms",
    "live.pacing.max_behind_ms",
)

#: about the run itself, so a noisy or perturbed run shows in its output
RUN_HEALTH = (
    "bench.rep_spread",
    "bench.cpu_s",
    "bench.machine_speed_ratio",
    "trace.overhead_ratio",
)


def per_layer_names() -> list:
    """Every metric a ``--trace 1`` run prints, in print order."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_ms", "calls")]
    names += COUNTERS
    names += [name for _, probe_names in PROBES.values() for name in probe_names]
    names += RUN_HEALTH
    return names


def unit_of(name: str) -> str:
    """A per-layer metric's unit, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    timed = re.search(r"_(us|ms|s)(_[ng]\d+)?$", name)
    if timed:
        return timed.group(1)
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "_spread")):
        return "ratio"
    return "count"
