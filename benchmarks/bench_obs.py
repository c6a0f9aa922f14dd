"""OBS — what does observability cost the canonical fleet scenario?

Three interleaved variants of the same seed-identical fleet run
(`fleet_of(n, stagger=0.2)` on 4 sites — the perf-gate scenario):

* ``bare``     — no Observability passed: the driver binds an all-off
  one, and every hook calls a null twin that records nothing — the path
  every unobserved fleet takes;
* ``obs_off``  — the acceptance configuration: metrics + breakers wired,
  tracing disabled.  This is what a production fabric runs;
* ``tracing``  — full causal span capture on top, priced separately.

Every variant must produce the exact same FleetReport and event count —
observability that perturbs the simulation cannot pass.

The < 2% tracing-off floor is gated on a *hook-cost account*, not a raw
wall-clock ratio: shared runners jitter far more than 2% between two
identical runs, so an A/B ratio gate would flake on noise while missing
nothing.  The account has two parts, each exact calls x tight-loop
per-call cost.  The pushes ``obs_off`` adds (viz frames, and the steer
and find latency observes the telemetry ledger's records make) are read
out of the run's own instruments and priced per instrument call; the null-twin calls the off path makes (span begin/end,
instrument pushes, breaker guards) are counted by a profile hook over
one untimed ``bare`` run and priced at the costliest one, a span begin
with attributes.  Their sum over the bare wall bounds what obs costs
either variant over code with no hooks at all.  Both inputs are stable:
the counts are deterministic, and a tight-loop minimum per-call time is
repeatable where whole-run walls are not.  The end-to-end A/B minimum is
still measured and reported, with a loose sanity bound that catches
gross regressions (a hook growing I/O or quadratic work).
"""

import os
import sys
import time

from benchmarks.conftest import run_once, write_json
from repro.obs import Observability, metrics, protect, tracer
from repro.perf.gate import FLEET_N_SITES, FLEET_STAGGER

#: sessions / interleaved repeats of the A/B (override for smoke runs)
OBS_SESSIONS = int(os.environ.get("OBS_SESSIONS", "16"))
OBS_REPEATS = int(os.environ.get("OBS_REPEATS", "3"))
#: tracing-off hook-cost floor (fraction of the bare wall)
OBS_GATE_THRESHOLD = float(os.environ.get("OBS_GATE_THRESHOLD", "0.02"))
#: end-to-end A/B sanity bound — loose because shared-runner noise is
#: real; the hook-cost account above is the tight gate
OBS_AB_SANITY = float(os.environ.get("OBS_AB_SANITY", "0.25"))

VARIANTS = ("bare", "obs_off", "tracing")


def _obs_for(variant):
    if variant == "bare":
        return None
    return Observability(
        tracing=(variant == "tracing"), metrics=True, breakers=True
    )


def _run_fleet(n_sessions, obs):
    from repro.fleet import FleetDriver, fleet_of

    specs = fleet_of(n_sessions, stagger=FLEET_STAGGER)
    t0 = time.perf_counter()
    driver = FleetDriver(specs, n_sites=FLEET_N_SITES, obs=obs)
    report = driver.run(wall_seconds=None)
    wall = time.perf_counter() - t0
    return report, wall, driver.env.events_processed


def _ab(n_sessions, repeats):
    """Interleaved repeats; per-variant walls + last report/events/obs."""
    walls = {name: [] for name in VARIANTS}
    reports, events, obs_used = {}, {}, {}
    for _ in range(repeats):
        for name in VARIANTS:
            obs = _obs_for(name)
            report, wall, ev = _run_fleet(n_sessions, obs)
            walls[name].append(wall)
            reports[name], events[name], obs_used[name] = report, ev, obs
    return walls, reports, events, obs_used


def _assert_same_work(reports, events):
    """Observability must not perturb the simulation."""
    base = reports["bare"]
    for name, rep in reports.items():
        assert (rep.completed, rep.failed, rep.ops) == (
            base.completed, base.failed, base.ops
        ), (name, rep.render())
        assert events[name] == events["bare"], (name, events)


def _hook_counts(obs):
    """Exact hot-path push counts, read back out of the run's metrics."""
    metrics = obs.metrics
    frames = sum(metrics.get("repro_viz_frames_total").series.values())
    steer_obs = metrics.get("repro_steer_latency_seconds").series[()][2]
    finds = metrics.get("repro_find_latency_seconds").series[()][2]
    return {
        "viz_frames": int(frames),
        "steer_observes": int(steer_obs),
        "find_observes": int(finds),
    }


def _per_call(fn, n=20000, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def _hook_cost_seconds(counts):
    """counts x microbenchmarked per-call instrument cost."""
    obs = Observability(tracing=False, metrics=True)
    hist = obs.metrics.histogram("bench_hist", "per-call cost probe")
    plain = obs.metrics.counter("bench_plain", "per-call cost probe")
    # A closure call wrapping the inc, like the driver's viz-frame hook.
    c_frame = _per_call(lambda: plain.inc())
    c_observe = _per_call(lambda: hist.observe(0.0123))
    return (
        counts["viz_frames"] * c_frame
        + (counts["steer_observes"] + counts["find_observes"]) * c_observe
    ), {"frame_ns": c_frame * 1e9, "observe_ns": c_observe * 1e9}


#: every function of the null twins the off path calls into
_NULL_CODES = frozenset(
    fn.__code__
    for cls in (
        tracer.NullTracer,
        metrics.NullRegistry,
        type(metrics.NULL_INSTRUMENT),
        protect.NullBreaker,
        protect.NullQuotas,
    )
    for fn in vars(cls).values()
    if hasattr(fn, "__code__")
)


def _null_calls(n_sessions):
    """Exact null-twin calls of one unobserved fleet run (untimed)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in _NULL_CODES:
            calls += 1

    sys.setprofile(count)
    try:
        _run_fleet(n_sessions, None)
    finally:
        sys.setprofile(None)
    return calls


def _off_path_seconds(calls):
    """Null calls x the tight-loop cost of the costliest one."""
    null = tracer.NULL_TRACER
    c_null = _per_call(
        lambda: null.begin("steer-op", cat="steer", parent=None, op=1, kind="get_status")
    )
    return calls * c_null, c_null * 1e9


def _gate(walls, obs_used, n_sessions):
    counts = _hook_counts(obs_used["obs_off"])
    hook_s, per_call_ns = _hook_cost_seconds(counts)
    null_calls = _null_calls(n_sessions)
    off_s, per_call_ns["null_ns"] = _off_path_seconds(null_calls)
    bare = min(walls["bare"])
    return {
        "counts": dict(counts, null_calls=null_calls),
        "per_call_ns": {k: round(v, 1) for k, v in per_call_ns.items()},
        "hook_cost_ms": round(hook_s * 1e3, 3),
        "off_path_ms": round(off_s * 1e3, 3),
        "bare_wall_ms": round(bare * 1e3, 1),
        "overhead": (hook_s + off_s) / bare,
        "ab_ratio_obs_off": min(walls["obs_off"]) / bare - 1.0,
        "ab_ratio_tracing": min(walls["tracing"]) / bare - 1.0,
    }


def test_obs_overhead(benchmark, reporter):
    walls, reports, events, obs_used = run_once(
        benchmark, lambda: _ab(OBS_SESSIONS, OBS_REPEATS)
    )
    _assert_same_work(reports, events)
    gate = _gate(walls, obs_used, OBS_SESSIONS)
    reporter.table(
        f"OBS: observability cost, {OBS_SESSIONS}-session fleet "
        f"(min of {OBS_REPEATS} interleaved repeats)",
        ["variant", "wall (ms)", "A/B min ratio"],
        [[name, f"{min(walls[name]) * 1e3:.1f}",
          f"{min(walls[name]) / min(walls['bare']) - 1:+.2%}"]
         for name in VARIANTS],
    )
    reporter.note(
        f"hook-cost account: {gate['counts']} calls, "
        f"{gate['hook_cost_ms']:.2f} ms pushes + {gate['off_path_ms']:.2f} ms "
        f"null calls over a {gate['bare_wall_ms']:.0f} ms bare run = "
        f"{gate['overhead']:.3%} (floor {OBS_GATE_THRESHOLD:.0%})"
    )
    write_json(
        "BENCH_obs.json",
        {
            "sessions": OBS_SESSIONS,
            "repeats": OBS_REPEATS,
            "walls_ms": {
                name: [round(w * 1e3, 3) for w in ws]
                for name, ws in walls.items()
            },
            "gate": {k: v for k, v in gate.items()},
            "gate_threshold": OBS_GATE_THRESHOLD,
        },
        wall_seconds=sum(sum(ws) for ws in walls.values()),
        events=sum(events.values()) * OBS_REPEATS,
    )
    _assert_floor(gate)


def _assert_floor(gate):
    # The floor: wiring metrics + breakers with tracing off, and the
    # null twins every unobserved fleet calls, must be (near-)free on
    # the hot paths.
    assert gate["overhead"] < OBS_GATE_THRESHOLD, (
        f"tracing-off hook cost {gate['overhead']:.3%} >= "
        f"{OBS_GATE_THRESHOLD:.0%} of the bare wall"
    )
    # Gross-regression sanity on the real end-to-end ratio (loose: the
    # runner's own jitter exceeds the tight floor).
    assert gate["ab_ratio_obs_off"] < OBS_AB_SANITY, (
        f"end-to-end obs-off overhead {gate['ab_ratio_obs_off']:+.1%} >= "
        f"{OBS_AB_SANITY:.0%} — a hook is doing real per-event work"
    )


def test_obs_smoke(reporter):
    """CI smoke: tiny A/B, same-work invariant + the overhead floor."""
    walls, reports, events, obs_used = _ab(n_sessions=8, repeats=2)
    _assert_same_work(reports, events)
    gate = _gate(walls, obs_used, 8)
    reporter.note(
        f"OBS smoke: hook cost {gate['overhead']:.3%} of the bare wall "
        f"(floor {OBS_GATE_THRESHOLD:.0%}), end-to-end A/B "
        f"{gate['ab_ratio_obs_off']:+.1%}, "
        f"{reports['bare'].completed}/8 completed in all variants"
    )
    _assert_floor(gate)
