"""Seeded open-loop stress client for the live control plane.

The batch layer measures the fabric with seeded *arrival processes*;
the live layer is measured the same way, from outside the socket: the
:class:`StressClient` draws Poisson arrival instants against the wall
clock, fires one HTTP session offer per instant regardless of how the
server is coping (open loop — the whole point is to observe admission
backpressure, not to be polite), mixes session shapes from the same
seeded RNG, and aggregates status codes and request latencies into a
JSON-able report for ``python -m repro.live stress`` and
``benchmarks/bench_live.py``.  One run offers one request kind
(:data:`KINDS`): session offers by default, or a GET of a session, a
steer of it or a ``/statsz`` probe, each aimed at the one session the
client offers before its schedule starts.
"""

from __future__ import annotations

import asyncio
import random
import socket
from time import perf_counter
from typing import Awaitable, Callable, Optional

from repro.errors import LiveError
from repro.fleet.spec import SIM_KINDS
from repro.live.http import HttpError, Response, encode_request, json_body, read_response
from repro.util.stats import percentile

#: what one offer of each kind asks for; ``{name}`` is the session the
#: client offers before a ``get`` or ``steer`` schedule starts
KINDS = {
    "post": ("POST", "/sessions"),
    "get": ("GET", "/sessions/{name}"),
    "steer": ("POST", "/sessions/{name}/steer"),
    "stats": ("GET", "/statsz"),
}

#: request pairs :func:`pipeline_unread` sends: a ~4 KiB metrics page,
#: then a 404 naming the pair's index; ~7 MB of answers, past a
#: loopback socket's default buffers
SLOW_PAIRS = 1500


async def request(
    host: str,
    port: int,
    method: str,
    target: str,
    doc: Optional[dict] = None,
    timeout: float = 30.0,
) -> Response:
    """One HTTP request over a fresh connection (close semantics)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = b"" if doc is None else json_body(doc)
        writer.write(encode_request(method, target, body, host=host, keep_alive=False))
        await writer.drain()
        return await asyncio.wait_for(read_response(reader), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def pipeline_unread(
    host: str,
    port: int,
    served: Callable[[], int],
    while_stalled: Callable[[], Awaitable[None]],
) -> bytes:
    """Pipeline :data:`SLOW_PAIRS` request pairs on one connection, read
    nothing until the server stops serving it, then end the stream and
    read every answer.

    The flow-control probe of an in-process server: ``served()`` is its
    request count, and it has stopped once that holds still for 0.2 s;
    ``while_stalled()`` is awaited then.  The connection's receive
    window is 4 KiB, so the answers back up into the server fast.
    """
    wire = b"".join(
        encode_request("GET", "/metricsz") + encode_request("GET", f"/sessions/ghost-{i}")
        for i in range(SLOW_PAIRS)
    )
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect((host, port))
    sock.setblocking(False)
    reader, writer = await asyncio.open_connection(sock=sock)
    try:
        writer.write(wire)
        count = -1
        while count != served():
            count = served()
            await asyncio.sleep(0.2)
        await while_stalled()
        writer.write_eof()
        return await asyncio.wait_for(reader.read(), 60.0)
    finally:
        writer.close()


class StressClient:
    """Open-loop Poisson load against a running :class:`LiveServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        rate: float = 10.0,
        duration: float = 3.0,
        seed: int = 0,
        session: Optional[dict] = None,
        steer_every: int = 0,
        timeout: float = 30.0,
        kind: str = "post",
    ) -> None:
        if rate <= 0 or duration <= 0:
            raise LiveError("stress rate and duration must be > 0")
        if kind not in KINDS:
            raise LiveError(f"unknown stress kind {kind!r} (one of {sorted(KINDS)})")
        self.host = host
        self.port = port
        self.rate = float(rate)
        self.duration = float(duration)
        self.seed = int(seed)
        #: extra POST /sessions body fields merged over the seeded mix
        self.session = dict(session or {})
        #: after every N-th accepted session, fire one steer at it
        self.steer_every = int(steer_every)
        self.timeout = timeout
        self.kind = kind
        #: the session a ``get`` or ``steer`` schedule aims at
        self.target: Optional[str] = None
        self.results: list[dict] = []

    def _plan(self) -> list[tuple[float, dict]]:
        """The seeded offer schedule: (wall offset, session body)."""
        rng = random.Random(self.seed)
        plan = []
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            if t >= self.duration:
                return plan
            body = {
                "sim": rng.choice(SIM_KINDS),
                "participants": rng.choice((1, 1, 2)),
            }
            body.update(self.session)
            plan.append((t, body))

    async def _offer(self, offset: float, body: dict, t0: float, index: int) -> None:
        delay = t0 + offset - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        method, target = KINDS[self.kind]
        if self.kind != "post":
            target = target.format(name=self.target)
            body = {"value": None} if self.kind == "steer" else None
        sent = perf_counter()
        outcome: dict = {"index": index, "offset": offset}
        try:
            response = await request(
                self.host, self.port, method, target, body, timeout=self.timeout
            )
            outcome["status"] = response.status
            outcome["latency"] = perf_counter() - sent
            doc = response.json() if self.kind == "post" else {}
            outcome["name"] = doc.get("name")
            if response.status == 429:
                outcome["retry_after"] = response.headers.get("retry-after")
            elif (
                response.status == 202
                and self.steer_every
                and index % self.steer_every == 0
                and doc.get("name")
            ):
                steer = await request(
                    self.host,
                    self.port,
                    "POST",
                    f"/sessions/{doc['name']}/steer",
                    {"value": None},
                    timeout=self.timeout,
                )
                outcome["steer_status"] = steer.status
        except (HttpError, ConnectionError, asyncio.TimeoutError, OSError) as exc:
            outcome["status"] = 0
            outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcome["latency"] = perf_counter() - sent
        self.results.append(outcome)

    async def run(self) -> dict:
        """Fire the whole schedule; returns :meth:`report`."""
        plan = self._plan()
        if not plan:
            raise LiveError(
                f"stress plan is empty (rate {self.rate}, duration {self.duration}); "
                "raise the rate or the duration"
            )
        if self.kind in ("get", "steer"):
            response = await request(
                self.host, self.port, "POST", "/sessions", plan[0][1], timeout=self.timeout
            )
            if response.status != 202:
                raise LiveError(f"the target session was refused: {response.status}")
            self.target = response.json()["name"]
        t0 = perf_counter()
        await asyncio.gather(
            *(self._offer(offset, body, t0, i) for i, (offset, body) in enumerate(plan))
        )
        wall = perf_counter() - t0
        return self.report(wall)

    def report(self, wall: float) -> dict:
        by_status: dict[str, int] = {}
        for r in self.results:
            key = str(r["status"])
            by_status[key] = by_status.get(key, 0) + 1
        latencies = sorted(r["latency"] for r in self.results)
        p50, p90, p99 = (
            [percentile(latencies, q) for q in (50, 90, 99)] if latencies else [0.0] * 3
        )
        n = len(self.results)
        return {
            "kind": self.kind,
            "requests": n,
            "wall_seconds": wall,
            "offered_rps": self.rate,
            "achieved_rps": n / wall if wall > 0 else 0.0,
            "by_status": dict(sorted(by_status.items())),
            "admitted": by_status.get("202", 0),
            "rejected": by_status.get("429", 0),
            "errors": by_status.get("0", 0),
            "latency_p50": p50,
            "latency_p90": p90,
            "latency_p99": p99,
            "latency_max": latencies[-1] if latencies else 0.0,
            "seed": self.seed,
        }
