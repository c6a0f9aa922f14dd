"""LiveServer end-to-end: HTTP lifecycle, backpressure, replay parity."""

import asyncio
import json

import pytest

from repro.errors import LiveError
from repro.live.client import request
from repro.live.replay import matrix_digest, replay_trace
from repro.live.server import RETRY_AFTER_CAP, LiveServer
from repro.live.trace import load_trace

#: small fabric, fast-forward pacing — wall time stays in milliseconds
FAST = {"rate": 200.0, "queue_limit": 6, "seed": 3}


def _session_body(**kw):
    body = {"sim": "building", "participants": 1, "duration": 2.0}
    body.update(kw)
    return body


async def _wait_state(server, name, states, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        doc = (await request(server.host, server.port, "GET", f"/sessions/{name}")).json()
        if doc["state"] in states:
            return doc
        await asyncio.sleep(0.01)
    raise AssertionError(f"session {name} never reached {states}")


def test_rejects_unknown_config_keys():
    with pytest.raises(LiveError, match=r"live config: unknown fields \['warp_speed'\]"):
        LiveServer(config={"warp_speed": 9})


def test_live_world_starts_no_broker_pool():
    # Only the chaos harness uses a broker pool, and the live world runs none.
    server = LiveServer(config=dict(FAST))
    port = server.config["broker_port"]
    assert server.driver.sites
    for site in server.driver.sites:
        assert port not in server.driver.net.host(site.svc_name).listeners


def test_session_lifecycle_over_http():
    async def go():
        server = LiveServer(config=dict(FAST))
        await server.start()
        try:
            health = (await request(server.host, server.port, "GET", "/healthz")).json()
            assert health["ok"] is True

            resp = await request(
                server.host, server.port, "POST", "/sessions", _session_body()
            )
            assert resp.status == 202
            doc = resp.json()
            name = doc["name"]
            assert name.startswith("live00000-") and doc["state"] == "queued"

            final = await _wait_state(server, name, {"completed"})
            assert final["telemetry"]["completed"] is True

            stats = (await request(server.host, server.port, "GET", "/statsz")).json()
            assert stats["queue"]["offered"] - stats["queue"]["rejected"] == 1
            assert stats["sessions"]["states"][name] == "completed"
            assert stats["pacing"]["events"] > 0
        finally:
            await server.shutdown(grace=30.0)

    asyncio.run(go())


def test_error_statuses():
    async def go():
        server = LiveServer(config=dict(FAST))
        await server.start()
        try:
            args = (server.host, server.port)
            assert (await request(*args, "GET", "/nope")).status == 404
            assert (await request(*args, "DELETE", "/healthz")).status == 405
            assert (await request(*args, "GET", "/sessions/ghost")).status == 404
            assert (await request(*args, "POST", "/sessions/ghost/steer")).status == 404
            assert (await request(*args, "DELETE", "/sessions/ghost")).status == 404
            bad = await request(*args, "POST", "/sessions", {"flux": 1})
            assert bad.status == 400
            assert "unknown session fields" in bad.json()["error"]
            worse = await request(*args, "POST", "/sessions", {"sim": "not-a-sim"})
            assert worse.status == 400
            # json.loads accepts the literal NaN; an admitted NaN cadence
            # used to kill the pacer and wedge every other session, the
            # other three to drop the connection without an answer.  The
            # wrong-typed sim_args were admitted and failed the session
            # later; true was accepted as a duration.
            nan = float("nan")
            for hostile in (
                {"cadence": nan},
                {"duration": nan},
                {"compute_time": nan},
                {"compute_time": 0},
                {"sim_args": "xy"},
                {"sim_args": [1, 2]},
                {"duration": True},
            ):
                resp = await request(*args, "POST", "/sessions", _session_body(**hostile))
                assert resp.status == 400, hostile
                assert "bad session spec" in resp.json()["error"]
            good = await request(*args, "POST", "/sessions", _session_body())
            assert good.status == 202
            await _wait_state(server, good.json()["name"], {"completed"})
        finally:
            await server.shutdown(grace=1.0)

    asyncio.run(go())


def test_overflowing_duration_is_400_and_the_server_answers():
    # ``1e308`` has no finite step budget and ``10**400`` is no float at
    # all: the spec used to raise OverflowError out of the route, so the
    # client got no HTTP answer at all.
    async def go():
        server = LiveServer(config=dict(FAST))
        await server.start()
        try:
            args = (server.host, server.port)
            for duration, error in (
                (1e308, "no finite step budget"),
                (10**400, "duration must be a finite number"),
            ):
                body = _session_body(duration=duration)
                resp = await request(*args, "POST", "/sessions", body)
                assert resp.status == 400, duration
                assert error in resp.json()["error"]
            health = await request(*args, "GET", "/healthz")
            assert health.status == 200 and health.json()["ok"] is True
        finally:
            await server.shutdown(grace=1.0)

    asyncio.run(go())


def test_fractional_whole_number_fields_are_400_and_the_pacer_lives():
    # ``{"participants": 1.5}`` used to be answered 202 and then kill the
    # pacer with a TypeError from ``range(1.5)`` when the session started,
    # taking every other session with it.
    async def go():
        server = LiveServer(config=dict(FAST))
        await server.start()
        try:
            args = (server.host, server.port)
            for hostile in (
                {"participants": 1.5},
                {"participants": True},
                {"sample_interval": 2.5},
            ):
                resp = await request(*args, "POST", "/sessions", _session_body(**hostile))
                assert resp.status == 400, hostile
                assert "must be an int" in resp.json()["error"]
            good = await request(*args, "POST", "/sessions", _session_body())
            assert good.status == 202
            await _wait_state(server, good.json()["name"], {"completed"})
            health = await request(*args, "GET", "/healthz")
            assert health.status == 200 and health.json()["ok"] is True
        finally:
            await server.shutdown(grace=1.0)

    asyncio.run(go())


def test_healthz_reports_a_dead_pacer():
    async def go():
        server = LiveServer(config=dict(FAST))
        await server.start()
        try:
            args = (server.host, server.port)
            assert (await request(*args, "GET", "/healthz")).status == 200
            # A failed event nobody waits on crashes the kernel by
            # design, and with it the pacer task that was stepping it.
            server.driver.env.event().fail(RuntimeError("pacer down"))
            await asyncio.wait({server._run_task}, timeout=5.0)
            sick = await request(*args, "GET", "/healthz")
            assert sick.status == 503 and sick.json()["ok"] is False
        finally:
            with pytest.raises(RuntimeError, match="pacer down"):
                await server.shutdown(grace=0.0)

    asyncio.run(go())


def test_429_backpressure_with_retry_after():
    async def go():
        # One site, one slot, one queue seat; pacing so slow nothing
        # finishes: the third concurrent offer must bounce.
        server = LiveServer(
            config={"n_sites": 1, "queue_slots": 1, "queue_limit": 1, "rate": 0.01}
        )
        await server.start()
        try:
            args = (server.host, server.port)
            first = await request(*args, "POST", "/sessions", _session_body())
            assert first.status == 202
            await asyncio.sleep(0.1)  # let the runner admit it to the slot
            second = await request(*args, "POST", "/sessions", _session_body())
            assert second.status == 202
            third = await request(*args, "POST", "/sessions", _session_body())
            assert third.status == 429
            assert int(third.headers["retry-after"]) >= 1
            doc = third.json()
            assert doc["backpressure"]["saturated"] is True
            assert doc["retry_after"] == int(third.headers["retry-after"])
            stats = (await request(*args, "GET", "/statsz")).json()
            assert stats["queue"]["rejected"] == 1
            assert stats["backpressure"]["queue_depth"] == 1
        finally:
            await server.shutdown(grace=0.0)

    asyncio.run(go())


def test_steer_and_cancel_running_session():
    async def go():
        # Slow pacing keeps the session running while we poke it.
        server = LiveServer(config={"rate": 5.0, "seed": 1})
        await server.start()
        try:
            args = (server.host, server.port)
            body = _session_body(duration=40.0, cadence=1.0)
            name = (await request(*args, "POST", "/sessions", body)).json()["name"]
            await _wait_state(server, name, {"running"})

            steer = await request(*args, "POST", f"/sessions/{name}/steer", {"value": 7})
            assert steer.status == 202
            assert steer.json()["pending_steers"] >= 1

            gone = await request(*args, "DELETE", f"/sessions/{name}")
            assert gone.status == 202 and gone.json()["state"] == "cancelling"
            await _wait_state(server, name, {"cancelled"})

            # Steering a dead session is a conflict, not a 404.
            dead = await request(*args, "POST", f"/sessions/{name}/steer", {"value": 1})
            assert dead.status == 409
            stats = (await request(*args, "GET", "/statsz")).json()
            assert stats["server"]["steers"] == 1 and stats["server"]["cancels"] == 1
        finally:
            await server.shutdown(grace=60.0)

    asyncio.run(go())


def test_hostile_steer_values_are_refused(tmp_path):
    trace_path = tmp_path / "steer.jsonl"
    inf = float("inf")
    # json.loads hands all of these over; a string or container used to
    # kill the session at its next set_parameter, NaN to poison the
    # sim's fields and put the non-JSON token NaN into the trace.
    hostile = ["abc", {"v": 1}, [1], True, False, float("nan"), inf, -inf, 10**400]

    async def go():
        server = LiveServer(config={"rate": 20.0, "seed": 1}, trace_path=trace_path)
        await server.start()
        try:
            args = (server.host, server.port)
            body = _session_body(duration=20.0, cadence=1.0)
            name = (await request(*args, "POST", "/sessions", body)).json()["name"]
            await _wait_state(server, name, {"running"})
            for value in hostile:
                resp = await request(*args, "POST", f"/sessions/{name}/steer", {"value": value})
                assert resp.status == 400, value
                assert "finite number or null" in resp.json()["error"]
            assert not server.driver.steer_requests.get(name)
            assert server.stats["steers"] == 0
            for value in (7, 2.5, None):
                resp = await request(*args, "POST", f"/sessions/{name}/steer", {"value": value})
                assert resp.status == 202, value
            assert (await request(*args, "POST", f"/sessions/{name}/steer")).status == 202
            final = await _wait_state(server, name, {"completed", "failed"}, timeout=20.0)
            assert final["state"] == "completed"
            assert final["telemetry"]["errors"] == 0 and final["telemetry"]["timeouts"] == 0
        finally:
            await server.shutdown(grace=30.0)

    asyncio.run(go())

    def strict(token):
        raise AssertionError(f"non-JSON token {token} in the trace")

    for line in trace_path.read_text().splitlines():
        json.loads(line, parse_constant=strict)
    steers = [e for e in load_trace(trace_path).events if e["event"] == "steer"]
    assert [e["value"] for e in steers] == [7, 2.5, None, None]


def test_metricsz_serves_prometheus_text():
    async def go():
        server = LiveServer(config=dict(FAST))
        await server.start()
        try:
            args = (server.host, server.port)
            resp = await request(*args, "POST", "/sessions", _session_body())
            name = resp.json()["name"]
            await _wait_state(server, name, {"completed"})

            scrape = await request(*args, "GET", "/metricsz")
            assert scrape.status == 200
            assert scrape.headers["content-type"].startswith("text/plain")
            text = scrape.body.decode("utf-8")
            assert text.endswith("\n")
            # Admission, pacing and circuit-breaker series all exposed.
            for needle in (
                "# TYPE repro_admission_offered_total counter",
                "repro_admission_offered_total 1",
                "# TYPE repro_pacing_ticks_total counter",
                "# TYPE repro_circuit_state gauge",
                'repro_circuit_state{breaker="broker"} 0',
                "repro_backpressure 0",
                "# TYPE repro_http_requests_total counter",
            ):
                assert needle in text, needle
            # No family repeats a count a ledger already exposes.
            for gone in ("repro_steer_timeouts_total", "repro_steer_errors_total",
                         "repro_http_admitted_total", "repro_http_rejected_total"):
                assert gone not in text, gone
            # Every sample line parses as "<series> <float>".
            for line in text.splitlines():
                if not line.startswith("#"):
                    float(line.rpartition(" ")[2])
            assert (await request(*args, "POST", "/metricsz")).status == 405
        finally:
            await server.shutdown(grace=30.0)

    asyncio.run(go())


def test_metricsz_503_when_metrics_disabled():
    async def go():
        server = LiveServer(config=dict(FAST, metrics=False))
        await server.start()
        try:
            resp = await request(server.host, server.port, "GET", "/metricsz")
            assert resp.status == 503
            assert "disabled" in resp.json()["error"]
        finally:
            await server.shutdown(grace=0.0)

    asyncio.run(go())


def _record_session(trace_path, n=4):
    """Serve briefly, offer ``n`` sessions, shut down; returns statsz."""

    async def go():
        server = LiveServer(config=dict(FAST), trace_path=trace_path)
        await server.start()
        try:
            for _ in range(n):
                resp = await request(
                    server.host, server.port, "POST", "/sessions", _session_body()
                )
                assert resp.status in (202, 429)
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)
        finally:
            await server.shutdown(grace=60.0)
        return server.statsz()

    return asyncio.run(go())


def test_live_trace_replays_byte_identically(tmp_path):
    trace_path = tmp_path / "live.jsonl"
    stats = _record_session(trace_path, n=4)
    trace = load_trace(trace_path)
    assert trace.sealed and len(trace.arrivals) == 4
    assert {e["event"] for e in trace.events} >= {"admit"}

    first = replay_trace(trace_path, workers=1)
    second = replay_trace(trace_path, workers=1)
    assert matrix_digest(first) == matrix_digest(second)

    # The replayed cell re-offers exactly the recorded sessions.
    assert first.totals.sessions == stats["sessions"]["offered"] == 4


def test_replay_parity_across_worker_counts(tmp_path):
    trace_path = tmp_path / "live.jsonl"
    _record_session(trace_path, n=3)
    serial = matrix_digest(replay_trace(trace_path, workers=1))
    parallel = matrix_digest(replay_trace(trace_path, workers=2))
    assert serial == parallel


def test_replay_store_round_trips(tmp_path):
    trace_path = tmp_path / "live.jsonl"
    _record_session(trace_path, n=2)
    store = tmp_path / "replay-store.jsonl"
    kept = replay_trace(trace_path, store_path=store, workers=1)
    assert store.exists()
    again = replay_trace(trace_path, store_path=store, workers=1)  # resume: no rerun
    assert matrix_digest(kept) == matrix_digest(again)


# -- 429 Retry-After derivation (PR 8 regression) ----------------------------
#
# The old turbo path answered a constant 1 second regardless of backlog
# (runner.rate is None short-circuited the sim->wall conversion), and a
# pathological infinite-patience bound overflowed math.ceil into a 500
# on the 429 path.  These pin the fixed derivation.


def test_turbo_429_over_socket_saturates_retry_after():
    async def go():
        server = LiveServer(
            config={"n_sites": 1, "queue_slots": 1, "queue_limit": 1, "rate": None}
        )
        await server.start()
        # Freeze the kernel: once the run loop is up, stop it and wait
        # for it to park, so offers pile up at a frozen sim instant and
        # the third POST bounces deterministically.
        while not server.runner._running:
            await asyncio.sleep(0.01)
        server.runner.stop()
        while server.runner._running:
            await asyncio.sleep(0.01)
        # Drop the startup drain measurement: this pins the cold-start
        # path where turbo has no sim->wall mapping yet.
        server.runner.sim_stepped = 0.0
        server.runner.stepping_wall = 0.0
        try:
            args = (server.host, server.port)
            assert (await request(*args, "POST", "/sessions", _session_body())).status == 202
            assert (await request(*args, "POST", "/sessions", _session_body())).status == 202
            third = await request(*args, "POST", "/sessions", _session_body())
            assert third.status == 429
            retry = int(third.headers["retry-after"])
            # Turbo with no measured throughput falls back to the
            # backpressure scalar: a saturated queue advertises the full
            # cap, not the old constant 1.
            assert retry == RETRY_AFTER_CAP
            assert third.json()["retry_after"] == retry
        finally:
            await server.shutdown(grace=0.0)

    asyncio.run(go())


def test_retry_after_wall_converts_at_measured_turbo_throughput():
    server = LiveServer(config={"rate": None})
    server.controller.retry_after = lambda: 40.0
    # 5 sim-seconds drained per wall second, measured.
    server.runner.sim_stepped = 50.0
    server.runner.stepping_wall = 10.0
    assert server._retry_after_wall() == 8
    # A huge bound saturates the cap instead of advertising minutes.
    server.controller.retry_after = lambda: 1e6
    assert server._retry_after_wall() == RETRY_AFTER_CAP


def test_retry_after_wall_survives_infinite_patience_bound():
    import math as _math

    for rate in (2.0, None):
        server = LiveServer(config={"rate": rate})
        server.controller.retry_after = lambda: _math.inf
        retry = server._retry_after_wall()  # must not OverflowError
        assert 1 <= retry <= RETRY_AFTER_CAP
