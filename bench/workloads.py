"""The four workloads, each driven through the system's public functions.

A workload is *repetitions of fixed deterministic work*: one
:meth:`Workload.repetition` call builds its world, runs it, checks what
must not move and returns a :class:`Rep`.  ``bench.run`` repeats it for
the measuring time and reports medians over repetitions — an end-to-end
number is never one sample.

``--seed`` changes the inputs without changing how much work they are
(session seeds, arrival instants, the sim cycling of the request mix), so
runs with different seeds measure the same thing.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Optional

from bench.env import REFERENCE_S, calibrate

# repro is imported inside the workloads, not here: what a fresh
# interpreter pays to import it is part of setup_s.

N_SITES = 4
STAGGER = 0.2
LIVE_CONNECTIONS = 2
#: closed-loop request mix of ``live_mixed``, by request index
POST_EVERY = 64
STATS_EVERY = 32
STEER_EVERY = 8
#: statuses a request kind may be answered with
LIVE_ALLOWED = {"post": (202, 429), "steer": (202, 409), "stats": (200,), "get": (200,)}


@dataclass
class Rep:
    """What one repetition measured and whether its outputs were right."""

    wall: float  # host seconds of the repetition's timed span
    units: list  # host seconds of each timed unit inside it
    items: int
    calibration: tuple  # calibrate() just before and just after that span
    problems: list = field(default_factory=list)  # empty = every check held
    digest: Optional[str] = None  # of the deterministic output, if any
    counters: dict = field(default_factory=dict)

    @property
    def factor(self) -> float:
        """Scales this repetition's host times to reference speed."""
        return REFERENCE_S / statistics.mean(self.calibration)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _written_bytes() -> int:
    """Bytes this process has passed to write(2) so far (Linux)."""
    try:
        for line in pathlib.Path("/proc/self/io").read_text().splitlines():
            if line.startswith("wchar:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Workload:
    name = ""
    #: whether repetitions of one seed must produce identical output
    deterministic = True

    def __init__(self, seed: int, smoke: bool, workdir: pathlib.Path) -> None:
        self.seed = seed % 100_000
        self.smoke = smoke
        self.workdir = workdir
        #: cleared for the traced repetition, whose times nobody reports:
        #: the calibration loop would only show up in its profile
        self.timed = True

    def calibrate(self) -> float:
        return calibrate() if self.timed else REFERENCE_S

    def setup(self):
        """Everything the first timed unit needs; returns a teardown."""
        raise NotImplementedError

    def repetition(self, spans, rep: int) -> Rep:
        raise NotImplementedError


# -- the two closed-batch fleets ------------------------------------------------


class _FleetWorkload(Workload):
    sessions = 32

    def suite(self):
        return None  # the paper's four applications

    def specs(self):
        from repro.fleet import fleet_of

        n = 4 if self.smoke else self.sessions
        specs = fleet_of(n, suite=self.suite(), stagger=STAGGER)
        return [replace(s, seed=s.seed + 1000 * self.seed) for s in specs]

    def build(self):
        from repro.fleet import FleetDriver

        return FleetDriver(self.specs(), n_sites=N_SITES)

    def setup(self):
        self.build()
        return lambda: None

    def items_of(self, report) -> int:
        raise NotImplementedError

    def repetition(self, spans, rep: int) -> Rep:
        with spans.span("repetition", rep):
            before = self.calibrate()
            t0 = perf_counter()
            with spans.span("build", rep):
                driver = self.build()
            with spans.span("run", rep):
                report = driver.run()
            wall = perf_counter() - t0
            calibration = (before, self.calibrate())
            with spans.span("report", rep):
                digest = _digest(report.to_dict())
        n = len(driver.specs)
        problems = []
        if report.completed != n:
            problems.append(f"{report.completed}/{n} sessions completed")
        if report.timeouts or report.errors:
            problems.append(f"{report.timeouts} timeouts, {report.errors} errors")
        return Rep(
            wall=wall,
            units=[wall],
            items=self.items_of(report),
            calibration=calibration,
            problems=problems,
            digest=digest,
            counters={
                "des.events": driver.env.events_processed,
                "fleet.sessions_completed": report.completed,
                "fleet.steer_ops": report.ops,
                "fleet.steer_errors": report.timeouts + report.errors,
                "fleet.sim_makespan_s": report.makespan,
                "fleet.sim_steer_p50_ms": report.steer_p50 * 1e3,
                "fleet.sim_steer_p99_ms": report.steer_p99 * 1e3,
            },
        )


class Fleet32(_FleetWorkload):
    """``repro.perf.gate.run_fleet`` at 32 sessions; item = session."""

    name = "fleet32"

    def items_of(self, report) -> int:
        return report.n_sessions


class SteerStorm32(_FleetWorkload):
    """The cheapest sim steered 20x as often; item = acknowledged op."""

    name = "steerstorm32"

    def suite(self):
        from repro.fleet import ScenarioSpec

        # transatlantic is left out: at this cadence its sessions never
        # complete (see README, "What the benchmark found").
        return [
            ScenarioSpec(
                name=f"storm-{profile}",
                sim="building",
                profile=profile,
                cadence=0.05,
                compute_time=0.1,
            )
            for profile in ("campus", "superjanet", "conference-floor")
        ]

    def items_of(self, report) -> int:
        return report.ops


# -- campaign_grid -------------------------------------------------------------


def _jittered(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """One arrival at the centre of each of n equal slots of [lo, hi),
    moved by up to 5 % of the slot.  Wider jitter decides whether an
    arrival is in flight when a fault hits, and the grid's work then jumps
    by 7 % steps from seed to seed; this much only reorders events."""
    width = (hi - lo) / n
    return [lo + (k + 0.45 + 0.1 * rng.random()) * width for k in range(n)]


class CampaignGrid(Workload):
    """A 6-cell grid run into a fresh store, then resumed from disk."""

    name = "campaign_grid"

    def spec(self):
        from repro.campaign import AxisPoint, preset

        # The smoke preset's fabric, fault axis and paper-mix scenario at
        # its own seed, so the seeded "random-3" faults are the same in
        # every run; --seed moves the arrival instants only.
        spec = preset("smoke")
        spec.name = "bench-grid"
        spec.scenarios = spec.scenarios[:1]
        rng = random.Random(self.seed)
        horizon = spec.base["horizon"] = 4.0
        if self.smoke:
            spec.faults = spec.faults[:2]
            spec.arrivals = [
                AxisPoint("steady", {"kind": "trace", "instants": _jittered(rng, 4, 0.0, 2.0)})
            ]
            return spec
        burst = _jittered(rng, 4, 0.0, horizon) + _jittered(rng, 8, 1.0, 2.5)
        spec.arrivals = [
            AxisPoint("steady", {"kind": "trace", "instants": _jittered(rng, 12, 0.0, horizon)}),
            AxisPoint("burst", {"kind": "trace", "instants": sorted(burst)}),
        ]
        return spec

    def setup(self):
        from repro.campaign import CampaignRunner, ResultStore

        CampaignRunner(self.spec(), ResultStore(self.workdir / "setup.jsonl"), workers=1)
        return lambda: None

    def repetition(self, spans, rep: int) -> Rep:
        from repro.campaign import CampaignRunner, ResultStore

        path = self.workdir / f"grid-{rep}.jsonl"
        path.unlink(missing_ok=True)
        written0 = _written_bytes()
        with spans.span("repetition", rep):
            before = self.calibrate()
            t0 = perf_counter()
            with spans.span("build", rep):
                spec = self.spec()
                runner = CampaignRunner(spec, ResultStore(path), workers=1)
            last = [t0]

            def progress(record: dict) -> None:
                now = perf_counter()
                spans.add("cell:" + record["cell_id"], last[0], now, rep)
                last[0] = now

            with spans.span("run", rep):
                matrix = runner.run(progress=progress)
            with spans.span("resume", rep):
                store = ResultStore(path)
                resumed = CampaignRunner(spec, store, workers=1)
                matrix_again = resumed.run()
            wall = perf_counter() - t0
            calibration = (before, self.calibrate())
            with spans.span("report", rep):
                digest = _digest(matrix.to_dict())
        written = _written_bytes() - written0
        problems = []
        if not matrix.complete:
            problems.append(f"grid incomplete: {matrix.holes} holes")
        if matrix.violations:
            problems.append(f"{matrix.violations} invariant violations")
        if resumed.executed:
            problems.append(f"resume executed {len(resumed.executed)} cells")
        if _digest(matrix_again.to_dict()) != digest:
            problems.append("matrix loaded from the store differs from the one run")
        records = store.cell_records()
        reports = [rec["report"] for rec in records]
        return Rep(
            wall=wall,
            units=[wall],
            items=spec.n_cells,
            calibration=calibration,
            problems=problems,
            digest=digest,
            counters={
                "des.events": sum(rec["perf"]["events"] for rec in records),
                "fleet.sessions_completed": sum(r["completed"] for r in reports),
                "fleet.steer_ops": sum(r["ops"] for r in reports),
                "fleet.steer_errors": sum(r["timeouts"] + r["errors"] for r in reports),
                "campaign.cells": len(reports),
                "campaign.violations": matrix.violations,
                "campaign.store.bytes": path.stat().st_size,
                "campaign.store.bytes_written": written,
                "load.offered": sum(r["load"]["offered"] for r in reports),
                "load.admitted": sum(r["load"]["admitted"] for r in reports),
                "load.rejected": sum(r["load"]["rejected"] for r in reports),
            },
        )


# -- live_mixed ----------------------------------------------------------------


class LiveMixed(Workload):
    """The HTTP control plane under a ticking kernel, closed loop."""

    name = "live_mixed"
    deterministic = False  # admission depends on the wall clock
    requests = 3200

    async def _open(self, trace_path):
        from repro.live.server import LiveServer

        server = LiveServer(config={"rate": 1.0, "seed": self.seed}, trace_path=trace_path)
        await server.start()
        conns = [
            await asyncio.open_connection(server.host, server.port)
            for _ in range(LIVE_CONNECTIONS)
        ]
        return server, conns

    @staticmethod
    async def _close(conns) -> None:
        for _, writer in conns:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    def setup(self):
        loop = asyncio.new_event_loop()
        server, conns = loop.run_until_complete(self._open(self.workdir / "setup-trace.jsonl"))

        def teardown() -> None:
            loop.run_until_complete(self._close(conns))
            loop.run_until_complete(server.shutdown(grace=60.0))
            loop.close()

        return teardown

    def _request(self, i: int, names: list, running: Optional[str]):
        """Request ``i`` of the fixed mix: (kind, method, target, body doc)."""
        from repro.fleet.spec import SIM_KINDS

        if i % POST_EVERY == 0:
            sim = SIM_KINDS[(i // POST_EVERY + self.seed) % len(SIM_KINDS)]
            doc = {"sim": sim, "duration": 4.0, "cadence": 0.5, "participants": 1}
            return "post", "POST", "/sessions", doc
        if i % STATS_EVERY == 8:
            return "stats", "GET", "/statsz", None
        if i % STATS_EVERY == 24:
            return "stats", "GET", "/metricsz", None
        if not names:
            return "get", "GET", "/healthz", None
        if i % STEER_EVERY == 2:
            # null keeps the scheduled value: a nudge every sim accepts
            return "steer", "POST", f"/sessions/{running or names[-1]}/steer", {"value": None}
        return "get", "GET", f"/sessions/{names[-1 - i % min(len(names), 4)]}", None

    async def _run(self, spans, rep: int, trace_path) -> Rep:
        from repro.errors import LiveError
        from repro.live.http import encode_request, json_body, read_response
        from repro.live.trace import load_trace

        n = 300 if self.smoke else self.requests
        with spans.span("build", rep):
            server, conns = await self._open(trace_path)
        counter = itertools.count()
        names: list = []  # one per answered POST /sessions, admitted or not
        running = None  # the session a GET last saw running
        latencies: list = []
        statuses: collections.Counter = collections.Counter()
        problems: list = []

        async def worker(reader, writer) -> None:
            nonlocal running
            while (i := next(counter)) < n:
                kind, method, target, doc = self._request(i, names, running)
                body = b"" if doc is None else json_body(doc)
                t0 = perf_counter()
                writer.write(encode_request(method, target, body, host=server.host))
                await writer.drain()
                response = await read_response(reader)
                t1 = perf_counter()
                latencies.append(t1 - t0)
                spans.add(f"{method} {kind}", t0, t1, rep)
                statuses[response.status] += 1
                if response.status not in LIVE_ALLOWED[kind]:
                    problems.append(f"request {i} ({method} {target}) answered {response.status}")
                    continue
                if kind == "post":
                    names.append(response.json()["name"])
                elif kind == "get" and target != "/healthz":
                    reply = response.json()
                    if reply["state"] == "running":
                        running = reply["name"]

        with spans.span("run", rep):
            before = self.calibrate()
            t0 = perf_counter()
            results = await asyncio.gather(
                *(worker(r, w) for r, w in conns), return_exceptions=True
            )
            wall = perf_counter() - t0
            calibration = (before, self.calibrate())
        for result in results:
            if isinstance(result, BaseException):
                problems.append(f"transport error: {type(result).__name__}: {result}")
        with spans.span("shutdown", rep):
            await self._close(conns)
            await server.shutdown(grace=60.0)
        with spans.span("report", rep):
            try:
                trace = load_trace(trace_path)
            except LiveError as exc:
                problems.append(f"trace does not load: {exc}")
                trace = None
        records = 0
        if trace is not None:
            records = 1 + len(trace.arrivals) + len(trace.events) + int(trace.sealed)
            if not trace.sealed:
                problems.append("trace is not sealed")
            if len(trace.arrivals) != len(names):
                problems.append(
                    f"trace holds {len(trace.arrivals)} arrivals, "
                    f"{len(names)} POST /sessions were answered"
                )
        if len(latencies) != n:
            problems.append(f"{len(latencies)}/{n} requests answered")
        pacing = server.runner.stats()
        queue = server.statsz()["queue"] or {}
        return Rep(
            wall=wall,
            units=latencies,
            items=n,
            calibration=calibration,
            problems=problems,
            counters={
                "des.events": server.driver.env.events_processed,
                "load.offered": queue.get("offered", 0),
                "load.admitted": queue.get("admitted", 0),
                "load.rejected": queue.get("rejected", 0),
                "live.requests": len(latencies),
                "live.status_2xx": sum(c for s, c in statuses.items() if 200 <= s < 300),
                "live.status_409": statuses[409],
                "live.status_429": statuses[429],
                "live.trace.records": records,
                "live.trace.bytes": os.path.getsize(trace_path),
                "live.pacing.events": pacing["events"],
                "live.pacing.ticks": pacing["ticks"],
                "live.pacing.catchups": pacing["catchups"],
                "live.pacing.stepping_ms": pacing["stepping_wall"] * 1e3,
                "live.pacing.max_behind_ms": pacing["max_behind"] * 1e3,
            },
        )

    def repetition(self, spans, rep: int) -> Rep:
        trace_path = self.workdir / f"trace-{rep}.jsonl"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), spans.span("repetition", rep):
            result = asyncio.run(self._run(spans, rep, trace_path))
        if stderr.getvalue().strip():
            # e.g. "trace already closed" raised in a session finaliser
            result.problems.append("stderr: " + stderr.getvalue().strip().splitlines()[-1])
        return result


WORKLOADS = {w.name: w for w in (Fleet32, SteerStorm32, CampaignGrid, LiveMixed)}
