"""Live showcase: record a steered run over HTTP, "kill" it, replay it.

The live control plane's whole pitch in three acts, a few seconds each:

1. serve the steering fabric against the wall clock (fast-forward
   pacing), offer sessions over real sockets, steer one mid-flight —
   every arrival lands in a JSONL trace;
2. "kill -9" the server by throwing away the trace's sealing end
   record — a torn trace must still load (one dropped tail line, no
   end marker);
3. replay the trace as a one-cell campaign, twice and across 1 vs 2
   worker processes: the MatrixReports are byte-identical, so the
   recorded incident is now a reproducible experiment.

Run:  PYTHONPATH=src python examples/live_showcase.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.live import LiveServer, load_trace, matrix_digest, replay_trace
from repro.live.client import request


async def record(trace_path: Path) -> None:
    server = LiveServer(config={"rate": 100.0, "seed": 11}, trace_path=trace_path)
    await server.start()
    where = (server.host, server.port)
    print(f"-- serving on http://{server.host}:{server.port} (rate=100x)")
    try:
        # A long-running session we can steer, plus short riders.
        body = {"sim": "building", "participants": 2, "duration": 20.0, "cadence": 0.5}
        steered = (await request(*where, "POST", "/sessions", body)).json()["name"]
        for _ in range(4):
            resp = await request(
                *where, "POST", "/sessions", {"sim": "building", "duration": 2.0}
            )
            print(f"   POST /sessions -> {resp.status} {resp.json().get('name', '')}")
            await asyncio.sleep(0.02)

        # Wait until the long session is on a site, then steer it live.
        for _ in range(100):
            doc = (await request(*where, "GET", f"/sessions/{steered}")).json()
            if doc["state"] == "running":
                break
            await asyncio.sleep(0.01)
        steer = await request(*where, "POST", f"/sessions/{steered}/steer", {"value": 3})
        print(f"   steer {steered}: {steer.status} {steer.json()}")
        await asyncio.sleep(0.1)
    finally:
        drain = await server.shutdown(grace=60.0)
        stats = server.statsz()
        queue = stats["queue"]
        print(
            f"-- drained {drain['events']} events; "
            f"{queue['offered'] - queue['rejected']} queued, {queue['rejected']} rejected, "
            f"{stats['server']['steers']} steer(s)\n"
        )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="live-"))
    trace_path = workdir / "incident.jsonl"

    # 1. the live run, traced
    asyncio.run(record(trace_path))

    # 2. simulate a kill -9: drop the sealing end record + tear the tail
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(lines[:-1]) + '\n{"kind": "arr')
    trace = load_trace(trace_path)
    print(
        f"-- torn trace still loads: {len(trace.arrivals)} arrivals, "
        f"sealed={trace.sealed}, dropped_lines={trace.dropped_lines}"
    )

    # 3. deterministic replay: twice, then across worker counts
    digests = {
        "replay #1": matrix_digest(replay_trace(trace_path, workers=1)),
        "replay #2": matrix_digest(replay_trace(trace_path, workers=1)),
        "2 workers": matrix_digest(replay_trace(trace_path, workers=2)),
    }
    for label, digest in digests.items():
        print(f"   {label}: {digest[:16]}...")
    assert len(set(digests.values())) == 1, "replay drifted!"
    print("-- byte-identical across replays and worker counts")


if __name__ == "__main__":
    main()
