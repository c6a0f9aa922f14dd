"""FLEET — hundreds of concurrent steering sessions on one testbed.

The paper runs one collaborative session across UCL/Manchester/ANL; the
fleet engine asks the production question: how do admission and steering
latency hold up when 1 -> 1 024 sessions share the sc03 showfloor fabric?
Each session is the full workflow (UNICORE consignment through a
firewalled gateway, OGSA service deployment, registry publication,
find -> bind -> steer), so the series measures the middleware fabric,
not a stripped-down stand-in.

Also regenerated here: the registry inverted index vs the naive linear
scan at fleet-scale handle counts (the `find` every admission issues).
"""

import math
import os
import time

from benchmarks.conftest import run_once, write_json
from repro.ogsa import RegistryService
from repro.perf.bench import peak_rss_bytes
from repro.perf.gate import FLEET_STAGGER, run_fleet

#: fleet sizes of the scaling series (override for smoke runs), run
#: ascending in one process so that the peak RSS read after a size — a
#: high-water mark — belongs to that size
FLEET_SIZES = tuple(
    sorted(int(s) for s in os.environ.get("FLEET_SIZES", "1,8,32,128,512,1024").split(","))
)


def _ms(x: float) -> str:
    return "-" if math.isnan(x) else f"{x * 1e3:.1f}"


def _run_fleet(n_sessions: int):
    # One scenario definition shared with the CI regression gate, so the
    # committed baseline and the gate's measurement can never drift.
    report, wall, events = run_fleet(n_sessions)
    report.wall_seconds = wall
    return report, events


def test_fleet_scaling(benchmark, reporter):
    def sweep():
        return {n: _run_fleet(n) + (peak_rss_bytes(),) for n in FLEET_SIZES}

    raw = run_once(benchmark, sweep)
    results = {n: rep for n, (rep, _ev, _rss) in raw.items()}
    events = sum(ev for _rep, ev, _rss in raw.values())
    rows = []
    for n, (rep, _ev, rss) in raw.items():
        rows.append([
            rep.n_sessions, rep.completed, rep.ops,
            *(_ms(x) for x in (rep.steer_p50, rep.steer_p90, rep.steer_p99, rep.admit_p90)),
            f"{rep.makespan:.1f}", f"{rep.wall_seconds:.2f}", f"{rss / 1e6:.0f}",
        ])
    reporter.table(
        "FLEET: N concurrent sessions on the sc03 showfloor fabric "
        "(full UNICORE+OGSA workflow each)",
        ["sessions", "completed", "steer ops", "p50 (ms)", "p90 (ms)",
         "p99 (ms)", "admit p90 (ms)", "makespan (s)", "wall (s)",
         "peak RSS (MB)"],
        rows,
    )
    write_json(
        "BENCH_fleet_scaling.json",
        # ``events`` per size is what repro.perf.gate compares exactly,
        # ``peak_rss_bytes`` what it allows 25 % over
        {
            str(n): dict(rep.to_dict(), events=ev, peak_rss_bytes=rss)
            for n, (rep, ev, rss) in raw.items()
        },
        wall_seconds=sum(rep.wall_seconds for rep in results.values()),
        events=events,
    )
    for n, rep in results.items():
        # Every admitted session must complete with zero steering timeouts.
        assert rep.completed == n, (n, rep.render(per_session=True))
        assert rep.timeouts == 0, (n, rep.render())
        # No backlog builds: admissions are staggered FLEET_STAGGER
        # apart and a session lives ~7 s, so the last one finishes a
        # bounded time after it was admitted, whatever the fleet size.
        assert rep.makespan < FLEET_STAGGER * n + 15.0
    # Steering latency is a property of the link classes, not the fleet
    # size: the p50 may not blow up as sessions multiply.
    p50s = [rep.steer_p50 for rep in results.values()]
    assert max(p50s) < 4 * min(p50s)


def test_registry_indexed_vs_naive_scan(benchmark, reporter):
    """`find` on >= 1000 published handles: inverted index vs linear scan."""
    n_handles, n_finds = 2000, 300
    reg = RegistryService()
    for i in range(n_handles):
        reg.publish(
            f"gsh://site-{i % 8}:8000/svc-{i}",
            {"type": "steering" if i % 2 else "viz-steering",
             "application": f"app-{i % 50}", "site": f"site-{i % 8}"},
        )
    query = {"application": "app-7", "type": "steering"}
    assert reg.find(query) == reg._find_naive(query)

    def timed(fn):
        t0 = time.perf_counter()
        for _ in range(n_finds):
            fn(query)
        return time.perf_counter() - t0

    def measure():
        return timed(reg.find), timed(reg._find_naive)

    indexed_s, naive_s = run_once(benchmark, measure)
    speedup = naive_s / indexed_s
    reporter.table(
        f"REGISTRY: {n_finds} x find over {n_handles} published handles",
        ["impl", "total (ms)", "per find (us)", "speedup"],
        [
            ["inverted index", f"{indexed_s * 1e3:.1f}",
             f"{indexed_s / n_finds * 1e6:.1f}", f"{speedup:.1f}x"],
            ["naive scan", f"{naive_s * 1e3:.1f}",
             f"{naive_s / n_finds * 1e6:.1f}", "1.0x"],
        ],
    )
    # The acceptance bar: measurably faster than the naive scan.
    assert speedup > 3.0, f"index only {speedup:.2f}x faster"
