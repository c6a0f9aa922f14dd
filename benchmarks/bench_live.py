"""LIVE — the real-time control plane under seeded open-loop stress.

Three numbers summarise whether "live" is viable on top of the DES
fabric, and all three land in ``BENCH_live.json`` beside the saturation
sweep and the slow-reader probe below:

* **requests/s** — HTTP round trips the single-threaded asyncio server
  sustains while the paced kernel runs underneath;
* **admit latency p90** — the client-observed ``POST /sessions`` round
  trip (socket + codec + synchronous admission + response);
* **paced-kernel overhead** — wall cost of driving the same event
  schedule through :class:`~repro.live.pacing.PacedRunner` in turbo
  mode versus ``Environment.run()`` raw: the price of batching and
  event-loop yields, which bounds how far behind a paced server can
  fall before catch-up accounting fires.

The **saturation sweep** finds the knee with the client out of the
server's process: the server runs in this process, and ``python -m
repro.live stress`` in a child offers one request kind at rising
open-loop rates, a fresh server per step.  A step is *sustained* when
every request is answered, the answered rate is at least
:data:`SUSTAINED_SHARE` of the schedule's own rate and the p99 is inside
:data:`SUSTAINED_P99` (the paper's ~100 ms human-latency budget).  Per
kind it records the highest sustained answered rate and the p99 there,
and the first step past it.  Each request opens its own connection, and
the client is one single-threaded process too, so the knee is the
pair's, not the server's alone.

The **slow-reader probe** pipelines requests on one connection without
reading the answers: the server must stop reading that connection once
its write buffer is full, and keep answering another client meanwhile.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.conftest import run_once, write_json
from repro.des.core import Environment
from repro.live.client import KINDS, SLOW_PAIRS, StressClient, pipeline_unread, request
from repro.live.pacing import PacedRunner
from repro.live.server import LiveServer

#: enough schedule to dwarf the runner's fixed costs, small enough for CI
OVERHEAD_EVENTS = 50_000
STRESS_RATE = 40.0
STRESS_SECONDS = 2.0

#: offered requests/s, each step run until a kind's first unsustained one
SWEEP_RATES = (250, 500, 1000, 1500, 2000, 3000, 4000)
SWEEP_SECONDS = 2.0
SMOKE_RATES = (50,)
SMOKE_SECONDS = 0.5
SUSTAINED_SHARE = 0.9
SUSTAINED_P99 = 0.1
#: a session the ``get`` and ``steer`` steps aim at, running all step long
SWEEP_TARGET = {"sim": "building", "participants": 1, "duration": 1e4}


def _tick_workload(env: Environment, n_procs: int, steps: int):
    def gen():
        for _ in range(steps):
            yield env.timeout(1.0)

    for _ in range(n_procs):
        env.process(gen())
    return n_procs * steps


def _paced_overhead():
    """(raw_wall, paced_wall, events) for the same tick schedule."""
    steps = OVERHEAD_EVENTS // 50
    raw_env = Environment()
    _tick_workload(raw_env, 50, steps)
    t0 = time.perf_counter()
    raw_env.run(until=steps + 1.0)
    raw_wall = time.perf_counter() - t0

    paced_env = Environment()
    events = _tick_workload(paced_env, 50, steps)
    runner = PacedRunner(paced_env, rate=None)
    t0 = time.perf_counter()
    asyncio.run(runner.run(until=steps + 1.0))
    paced_wall = time.perf_counter() - t0
    assert paced_env.now == raw_env.now
    return raw_wall, paced_wall, events


def _stress():
    """Seeded open-loop load against a fast-forwarded live server."""

    async def go():
        server = LiveServer(config={"rate": 10.0, "seed": 0})
        await server.start()
        try:
            client = StressClient(
                server.host,
                server.port,
                rate=STRESS_RATE,
                duration=STRESS_SECONDS,
                seed=1,
                steer_every=5,
            )
            report = await client.run()
        finally:
            await server.shutdown(grace=60.0)
        return report, server.statsz()

    return asyncio.run(go())


async def _stress_child(port: int, kind: str, rate: float, seconds: float) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    argv = [sys.executable, "-m", "repro.live", "stress", "--port", str(port),
            "--kind", kind, "--rate", str(rate), "--duration", str(seconds), "--json"]
    if kind in ("get", "steer"):
        argv += ["--session", json.dumps(SWEEP_TARGET)]
    child = await asyncio.create_subprocess_exec(
        *argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    out, err = await child.communicate()
    if not out.strip():
        raise AssertionError(f"stress child ({kind} at {rate}/s) printed no report: {err!r}")
    return json.loads(out)


def _step(report: dict, seconds: float) -> dict:
    """One step's numbers; the schedule's own count sets the offered
    rate, so a client that falls behind its plan is not sustained."""
    planned = report["requests"] / seconds
    answered = (report["requests"] - report["errors"]) / report["wall_seconds"]
    return {
        "offered_rps": report["offered_rps"],
        "planned_rps": planned,
        "answered_rps": answered,
        "p99_ms": report["latency_p99"] * 1e3,
        "errors": report["errors"],
        "by_status": report["by_status"],
        "sustained": (
            report["errors"] == 0
            and answered >= SUSTAINED_SHARE * planned
            and report["latency_p99"] <= SUSTAINED_P99
        ),
    }


def _sweep(rates=SWEEP_RATES, seconds=SWEEP_SECONDS):
    """Per request kind: every step run, the last sustained, the knee."""

    async def step(kind, rate):
        server = LiveServer(config={"rate": 10.0, "seed": 0})
        await server.start()
        try:
            return _step(await _stress_child(server.port, kind, rate, seconds), seconds)
        finally:
            await server.shutdown(grace=0.0)

    kinds = {}
    for kind in sorted(KINDS):
        steps = []
        for rate in rates:
            steps.append(asyncio.run(step(kind, rate)))
            if not steps[-1]["sustained"]:
                break
        held = [s for s in steps if s["sustained"]]
        kinds[kind] = {
            "max_sustained_rps": held[-1]["answered_rps"] if held else 0.0,
            "p99_ms_at_knee": held[-1]["p99_ms"] if held else None,
            "first_unsustained": None if steps[-1]["sustained"] else steps[-1],
            "steps": steps,
        }
    return {"seconds_per_step": seconds, "kinds": kinds}


def _slow_reader():
    """One client pipelines without reading while another asks /healthz."""
    probe = {}

    async def go():
        server = LiveServer(config={"rate": None, "seed": 0})
        await server.start()

        async def stalled():
            probe["served_while_stalled"] = server.stats["requests"]
            t0 = time.perf_counter()
            health = await request(server.host, server.port, "GET", "/healthz")
            probe["healthz_ms_while_stalled"] = (time.perf_counter() - t0) * 1e3
            probe["healthz_status"] = health.status

        try:
            data = await pipeline_unread(
                server.host, server.port, lambda: server.stats["requests"], stalled
            )
        finally:
            await server.shutdown(grace=0.0)
        return {"pipelined": 2 * SLOW_PAIRS, "answered": data.count(b"HTTP/1.1 "), **probe}

    return asyncio.run(go())


def _payload(report, stats, raw_wall, paced_wall, events, sweep, slow):
    pacing = stats["pacing"]
    return {
        "requests_per_sec": report["achieved_rps"],
        "offered_rps": report["offered_rps"],
        "requests": report["requests"],
        "admitted": report["admitted"],
        "rejected": report["rejected"],
        "admit_latency_p50_ms": report["latency_p50"] * 1e3,
        "admit_latency_p90_ms": report["latency_p90"] * 1e3,
        "admit_latency_p99_ms": report["latency_p99"] * 1e3,
        "paced_overhead": {
            "events": events,
            "raw_wall_seconds": raw_wall,
            "paced_wall_seconds": paced_wall,
            "ratio": paced_wall / raw_wall if raw_wall > 0 else 0.0,
        },
        "server_pacing": {
            "ticks": pacing["ticks"],
            "catchups": pacing["catchups"],
            "max_behind": pacing["max_behind"],
            "stepping_wall": pacing["stepping_wall"],
            "events": pacing["events"],
        },
        "saturation": sweep,
        "slow_reader": slow,
    }


def _sweep_rows(sweep):
    rows = []
    for kind, row in sweep["kinds"].items():
        past = row["first_unsustained"]
        rows.append([
            kind,
            f"{row['max_sustained_rps']:.0f}",
            "-" if row["p99_ms_at_knee"] is None else f"{row['p99_ms_at_knee']:.1f}",
            "-" if past is None else f"{past['offered_rps']:.0f}",
        ])
    return rows


def _check_slow_reader(slow):
    # the server stopped reading the stalled connection, kept answering
    # the other one, then answered every request it had been sent
    assert slow["served_while_stalled"] < slow["pipelined"]
    assert slow["healthz_status"] == 200
    assert slow["answered"] == slow["pipelined"]


def test_live_control_plane(benchmark, reporter):
    def both():
        return _stress(), _paced_overhead()

    (report, stats), (raw_wall, paced_wall, events) = run_once(benchmark, both)
    sweep, slow = _sweep(), _slow_reader()
    ratio = paced_wall / raw_wall if raw_wall > 0 else 0.0
    reporter.table(
        f"LIVE: control plane under stress (seed {report['seed']}, "
        f"{STRESS_SECONDS:.0f}s at {STRESS_RATE:.0f} rps offered)",
        ["metric", "value"],
        [
            ["achieved rps", f"{report['achieved_rps']:.1f}"],
            ["admitted / rejected", f"{report['admitted']} / {report['rejected']}"],
            ["admit latency p50 (ms)", f"{report['latency_p50'] * 1e3:.2f}"],
            ["admit latency p90 (ms)", f"{report['latency_p90'] * 1e3:.2f}"],
            ["paced/raw kernel wall", f"{ratio:.2f}x over {events} events"],
            ["server catchups", stats["pacing"]["catchups"]],
        ],
    )
    reporter.table(
        f"LIVE: saturation sweep, client in a child ({SWEEP_SECONDS:.0f}s per step)",
        ["kind", "max sustained rps", "p99 there (ms)", "first unsustained offer"],
        _sweep_rows(sweep),
    )
    assert report["errors"] == 0
    assert report["requests"] > 0
    _check_slow_reader(slow)
    write_json(
        "BENCH_live.json",
        _payload(report, stats, raw_wall, paced_wall, events, sweep, slow),
        wall_seconds=report["wall_seconds"] + raw_wall + paced_wall,
        events=stats["pacing"]["events"] + 2 * events,
    )


def test_live_smoke(reporter):
    """CI smoke: stress the server, measure pacing overhead, gate sanity."""
    report, stats = _stress()
    raw_wall, paced_wall, events = _paced_overhead()
    sweep = _sweep(SMOKE_RATES, SMOKE_SECONDS)
    slow = _slow_reader()
    reporter.table(
        f"LIVE smoke: saturation sweep ({SMOKE_SECONDS}s per step)",
        ["kind", "max sustained rps", "p99 there (ms)", "first unsustained offer"],
        _sweep_rows(sweep),
    )
    reporter.note(
        f"LIVE smoke: {report['requests']} requests "
        f"({report['achieved_rps']:.1f} rps, {report['admitted']} admitted, "
        f"{report['rejected']} rejected), admit p90 "
        f"{report['latency_p90'] * 1e3:.1f}ms, paced/raw "
        f"{paced_wall / raw_wall:.2f}x over {events} events"
    )
    # The paper's collaborative-steering loop budgets ~100ms of human
    # latency; local HTTP admission must be far inside that.
    assert report["errors"] == 0
    assert report["latency_p90"] < 0.5
    assert report["admitted"] > 0
    # Turbo pacing may cost a few x raw stepping (yields + batching),
    # but an order of magnitude means the runner is broken.
    assert paced_wall < 10 * raw_wall + 0.5
    _check_slow_reader(slow)
    write_json(
        "BENCH_live.json",
        _payload(report, stats, raw_wall, paced_wall, events, sweep, slow),
        wall_seconds=report["wall_seconds"] + raw_wall + paced_wall,
        events=stats["pacing"]["events"] + 2 * events,
    )
