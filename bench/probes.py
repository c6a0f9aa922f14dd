"""Per-layer probes: many timed calls into one public function each.

A probe isolates what an end-to-end number cannot: the cost of a single
layer at the input size the workloads give it, or — for the three
whole-file-rewriting journals — at sizes the workloads never reach, with
the write cost beside the read cost so that a change helping one and
costing the other shows.  Each probe runs in the traced run of its *home*
workload (the one whose layers it explains) and reads 0 elsewhere.

``--smoke`` shrinks call counts and store sizes; names keep their
full-size suffix.
"""

from __future__ import annotations

import statistics
from time import perf_counter


def _median_time(fn, calls: int, scale: float) -> float:
    """Median host time of ``calls`` individually timed ``fn()`` calls."""
    samples = []
    for _ in range(calls):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples) * scale


def _fleet_probes(wl, calls: int) -> dict:
    from repro.des import Environment, Store
    from repro.fleet.spec import SIM_KINDS, make_sim

    out = {}
    for kind in SIM_KINDS:
        sim = make_sim(kind, seed=wl.seed)
        sim.run(3)
        out[f"sims.{kind}.advance_us"] = _median_time(sim.advance, calls, 1e6)

    n_timers, n_handoffs = (500, 100) if wl.smoke else (50_000, 10_000)

    def timer_churn() -> float:
        env = Environment()

        def ticker():
            for _ in range(n_timers):
                yield env.timeout(0.001)

        env.process(ticker())
        t0 = perf_counter()
        env.run()
        return env.events_processed / (perf_counter() - t0)

    def store_pingpong() -> float:
        env = Environment()
        ping, pong = Store(env), Store(env)

        def left():
            for i in range(n_handoffs):
                yield ping.put(i)
                yield pong.get()

        def right():
            for _ in range(n_handoffs):
                item = yield ping.get()
                yield pong.put(item)

        env.process(left())
        env.process(right())
        t0 = perf_counter()
        env.run()
        return env.events_processed / (perf_counter() - t0)

    out["des.timer_churn_events_per_s"] = statistics.median(timer_churn() for _ in range(3))
    out["des.store_pingpong_events_per_s"] = statistics.median(
        store_pingpong() for _ in range(3)
    )
    return out


def _storm_probes(wl, calls: int) -> dict:
    from repro.fleet.spec import make_sim
    from repro.ogsa.registry import RegistryService
    from repro.wire.codec import approx_size, decode, encode

    sim = make_sim("building", seed=wl.seed)
    sim.run(3)
    sample = sim.sample()
    wire_bytes = encode(sample)
    registry = RegistryService()
    n_handles = 20 if wl.smoke else 2000
    for i in range(n_handles):
        registry.publish(
            f"gsh://svc-{i % 4}/steering/{i}",
            {"type": "steering", "application": f"s{i:04d}", "site": i % 4},
        )
    query = {"application": f"s{n_handles // 2:04d}"}
    return {
        "wire.approx_size_us": _median_time(lambda: approx_size(sample), calls, 1e6),
        "wire.encode_us": _median_time(lambda: encode(sample), calls, 1e6),
        "wire.decode_us": _median_time(lambda: decode(wire_bytes), calls, 1e6),
        "ogsa.registry.find_us": _median_time(lambda: registry.find(query), calls, 1e6),
    }


def _campaign_probes(wl, calls: int) -> dict:
    from repro.campaign import (
        CampaignRunner,
        Evaluation,
        MatrixReport,
        ResultStore,
        SearchArchive,
        search_preset,
    )

    spec = wl.spec()
    # three real run_cell outputs, from the store the traced repetition left
    real = sorted(wl.workdir.glob("grid-*.jsonl"))[-1]
    seeds = ResultStore(real).cell_records()[:3]

    def clone(i: int) -> dict:
        return dict(seeds[i % len(seeds)], cell_id=f"clone-{i:05d}")

    out = {}
    path = wl.workdir / "probe-store.jsonl"
    path.unlink(missing_ok=True)
    ResultStore(path, fsync=False).ensure_header(spec)
    filled = 0
    timed = 2 if wl.smoke else 5
    for label, size in (("n16", 4), ("n256", 8)) if wl.smoke else (("n16", 16), ("n256", 256)):
        filler = ResultStore(path, fsync=False)
        while filled < size:
            filler.append(clone(filled))
            filled += 1
        if label == "n256":
            out["campaign.store.load_ms_n256"] = _median_time(
                lambda: ResultStore(path), timed, 1e3
            )
        durable = ResultStore(path)  # fsync on, as campaigns run it

        def append() -> None:
            nonlocal filled
            durable.append(clone(filled))
            filled += 1

        out[f"campaign.store.append_ms_{label}"] = _median_time(append, timed, 1e3)
    records = ResultStore(path).cell_records()
    out["campaign.matrix.aggregate_ms"] = _median_time(
        lambda: MatrixReport.from_records(records).to_dict(), timed, 1e3
    )

    grid = wl.workdir / "probe-supervised.jsonl"
    grid.unlink(missing_ok=True)
    t0 = perf_counter()
    CampaignRunner(spec, ResultStore(grid), workers=1, supervise=True).run()
    out["campaign.supervise.grid_s"] = perf_counter() - t0

    search = search_preset("cliff-smoke")
    generations = 2 if wl.smoke else 32
    archive = SearchArchive(
        search,
        [
            Evaluation(
                generation=g,
                assignment={r.path: (r.lo + r.hi) / 2 for r in search.space.ranges},
                cell_id=f"cliff-smoke/g{g}-p{p}",
                seed=g * search.population + p,
                score=1.0 / (1 + g + p),
            )
            for g in range(generations)
            for p in range(search.population)
        ],
    )
    archive_path = wl.workdir / "probe-archive.json"
    out["campaign.search.archive_write_ms_g32"] = _median_time(
        lambda: archive.write(archive_path), calls, 1e3
    )
    out["campaign.search.archive_load_ms_g32"] = _median_time(
        lambda: SearchArchive.load(archive_path), calls, 1e3
    )
    return out


def _live_probes(wl, calls: int) -> dict:
    from repro.live.http import (
        encode_request,
        encode_response,
        json_body,
        parse_request_head,
        parse_response_head,
    )
    from repro.live.server import LiveServer
    from repro.live.trace import TraceRecorder, load_trace

    body = json_body({"name": "live00042", "state": "running", "site": 1, "sim_now": 12.5})

    def codec() -> None:
        request = encode_request("GET", "/sessions/live00042", host="127.0.0.1")
        parse_request_head(request)
        response = encode_response(200, body)
        parse_response_head(response[: response.index(b"\r\n\r\n") + 4])

    server = LiveServer(config={"rate": None, "seed": wl.seed})  # never started
    out = {
        "live.http.codec_us": _median_time(codec, calls, 1e6),
        "obs.metrics.render_us": _median_time(server.metricsz, calls, 1e6),
    }

    path = wl.workdir / "probe-trace.jsonl"
    recorder = TraceRecorder(path, config=server.config)
    small, large = (4, 16) if wl.smoke else (64, 1024)
    appends = []
    for i in range(large + 8):
        t0 = perf_counter()
        recorder.record_event("steer", sim=i * 0.01, wall=1.7e9 + i, name="live00042", value=None)
        appends.append(perf_counter() - t0)
    recorder.close(sim=large * 0.01, wall=1.7e9 + large)
    out["live.trace.append_ms_n64"] = statistics.median(appends[small - 4 : small + 4]) * 1e3
    out["live.trace.append_ms_n1024"] = statistics.median(appends[large - 4 : large + 4]) * 1e3
    out["live.trace.load_ms_n1024"] = _median_time(
        lambda: load_trace(path), 2 if wl.smoke else 5, 1e3
    )
    return out


#: home workload -> (probe function, the metric names it emits)
PROBES = {
    "fleet32": (
        _fleet_probes,
        (
            "sims.lb3d.advance_us",
            "sims.pepc.advance_us",
            "sims.building.advance_us",
            "sims.crowd.advance_us",
            "des.timer_churn_events_per_s",
            "des.store_pingpong_events_per_s",
        ),
    ),
    "steerstorm32": (
        _storm_probes,
        ("wire.approx_size_us", "wire.encode_us", "wire.decode_us", "ogsa.registry.find_us"),
    ),
    "campaign_grid": (
        _campaign_probes,
        (
            "campaign.matrix.aggregate_ms",
            "campaign.supervise.grid_s",
            "campaign.store.append_ms_n16",
            "campaign.store.append_ms_n256",
            "campaign.store.load_ms_n256",
            "campaign.search.archive_write_ms_g32",
            "campaign.search.archive_load_ms_g32",
        ),
    ),
    "live_mixed": (
        _live_probes,
        (
            "live.http.codec_us",
            "obs.metrics.render_us",
            "live.trace.append_ms_n64",
            "live.trace.append_ms_n1024",
            "live.trace.load_ms_n1024",
        ),
    ),
}


def run_probes(wl) -> dict:
    """The probes whose home is ``wl``'s workload."""
    fn, _ = PROBES[wl.name]
    return fn(wl, calls=3 if wl.smoke else 200)
