"""The live control plane: HTTP/JSON steering over the paced fabric.

One :class:`LiveServer` builds its stack with the campaign cell's own
builder, :func:`~repro.campaign.runner.build_world`, on the cell its
trace replays as — :class:`~repro.fleet.driver.FleetDriver` fabric,
:class:`~repro.load.admission.AdmissionController` with a placement
policy, plus an optional autoscaler — but drives it with a
:class:`~repro.live.pacing.PacedRunner` instead of
``Environment.run()``, and accepts sessions from the network instead of
an arrival process:

    POST   /sessions              offer a new steering session
    GET    /sessions/{name}       session state + telemetry
    POST   /sessions/{name}/steer queue a live parameter override
    DELETE /sessions/{name}       cancel a running session
    GET    /healthz               liveness probe (503 once the pacer is dead)
    GET    /statsz                counters, pacing stats, backpressure
    GET    /metricsz              Prometheus text exposition (repro.obs)

Everything shares one asyncio thread: handlers mutate the DES world
only between runner ticks, and each mutation lands on the kernel heap
through ``Environment._enqueue``, whose ``on_schedule`` hook wakes the
runner — so admission is a plain synchronous call, exactly the code
path batch campaigns exercise.  A full admission queue answers **429**
with a ``Retry-After`` derived from the queue's minimum remaining
patience.  When a trace path is given, every offer (admitted or not)
is recorded for deterministic replay (:mod:`repro.live.trace`).

The live world runs no chaos harness, so it builds no broker pool
(its replay cell's harness builds one in ``run_cell``).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Optional

from repro.campaign.runner import build_world
from repro.errors import LiveError, ReproError, SteeringError
from repro.fleet.spec import ScenarioSpec, mint_spec
from repro.live.http import (
    MAX_HEAD_BYTES,
    HttpError,
    Request,
    encode_response,
    json_body,
    read_request,
)
from repro.live.pacing import PacedRunner
from repro.live.trace import LiveConfig, TraceRecorder, live_config, replay_campaign
from repro.load import ReactiveAutoscaler
from repro.obs import Observability
from repro.obs.protect import BackpressureSignal
from repro.wire.fields import decode_fields

#: every :class:`~repro.live.trace.LiveConfig` key at its default
DEFAULT_CONFIG = vars(LiveConfig())

#: hard ceiling on the advertised Retry-After, in wall seconds — deep
#: backlogs and non-finite patience bounds saturate here instead of
#: telling a client to go away for hours (or 500ing on ``ceil(inf)``)
RETRY_AFTER_CAP = 60

#: the pacer's longest wall sleep: a tighter bound than
#: :class:`PacedRunner`'s default on the cost of any missed wakeup
MAX_TICK = 0.05

#: the trace path an untraced server lowers its config with: its replay
#: cell, never written, is named after this stem
UNTRACED = "untraced"

#: POST /sessions body keys, passed through to the ScenarioSpec
_SESSION_FIELDS = (
    "sim",
    "profile",
    "participants",
    "duration",
    "cadence",
    "compute_time",
    "sample_interval",
    "sim_args",
)


@dataclass
class _SteerBody:
    """A steer request: no ``value`` (a nudge) or a finite number."""

    value: float | None = None


class LiveServer:
    """Serve the steering fabric over HTTP against the wall clock."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[dict] = None,
        trace_path=None,
    ) -> None:
        merged = live_config(config or {}, "live config")
        self.host = host
        self.port = port
        self.config = merged

        tracing = merged["tracing"]
        self._trace_export = tracing if isinstance(tracing, str) else None
        self.obs = Observability(
            tracing=bool(tracing),
            metrics=bool(merged["metrics"]),
            breakers=merged["breakers"],
            quota=merged["quota"],
        )
        # The replay cell of this run, built before its trace exists:
        # live and replay share its id, sub-seeds and fabric.  An
        # untraced run lowers through the same function on a stand-in.
        trace = UNTRACED if trace_path is None else trace_path
        cell = replay_campaign(merged, trace).cells()[0]
        driver, self.controller, autoscale = build_world(cell, obs=self.obs)
        self.driver = driver
        self.runner = PacedRunner(driver.env, rate=merged["rate"], max_tick=MAX_TICK)
        self.obs.attach_runner(self.runner)
        self.backpressure_signal = BackpressureSignal(self.controller, runner=self.runner)
        self.obs.attach_backpressure(self.backpressure_signal)
        if autoscale is not None:
            if autoscale.pop("use_backpressure", False) and "pressure" not in autoscale:
                autoscale["pressure"] = self.backpressure_signal
            ReactiveAutoscaler(self.controller, **autoscale)

        self.recorder: Optional[TraceRecorder] = None
        if trace_path is not None:
            self.recorder = TraceRecorder(trace_path, config=merged)
        self.controller.observers.append(self._on_queue_event)
        driver.session_observers.append(self._on_session_event)

        #: every session ever offered: name -> latest lifecycle state
        self.session_states: dict[str, str] = {}
        self._counter = 0
        #: HTTP counters; admissions are counted by the queue ledger
        self.stats = {
            "requests": 0,
            "steers": 0,
            "cancels": 0,
            "bad_requests": 0,
        }
        self.obs.attach_http_stats(self.stats)
        self._server: Optional[asyncio.AbstractServer] = None
        self._run_task: Optional[asyncio.Task] = None

    # -- trace observers -----------------------------------------------

    def _on_queue_event(self, kind: str, **detail) -> None:
        spec = detail.get("spec")
        name = spec.name if spec is not None else None
        if kind in ("offer", "reject", "abandon", "admit") and name is not None:
            self.session_states[name] = {
                "offer": "queued",
                "reject": "rejected",
                "abandon": "abandoned",
                "admit": "running",
            }[kind]
        if self.recorder is None:
            return
        if kind == "admit":
            self.recorder.record_event(
                "admit",
                sim=self.driver.env.now,
                wall=time.time(),
                name=name,
                cls=detail.get("cls"),
                site=detail.get("site"),
                wait=detail.get("wait"),
            )
        elif kind == "abandon":
            self.recorder.record_event(
                "abandon",
                sim=self.driver.env.now,
                wall=time.time(),
                name=name,
                cls=detail.get("cls"),
            )

    def _on_session_event(self, kind: str, name: str, site_index: int) -> None:
        if kind in ("complete", "fail", "cancel"):
            self.session_states[name] = {
                "complete": "completed",
                "fail": "failed",
                "cancel": "cancelled",
            }[kind]
            if self.recorder is not None:
                self.recorder.record_event(
                    kind, sim=self.driver.env.now, wall=time.time(), name=name, site=site_index
                )

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the paced kernel."""
        if self._server is not None:
            raise LiveError("server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_HEAD_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._run_task = asyncio.create_task(self.runner.run())

    async def shutdown(self, grace: float = 60.0) -> dict:
        """Stop accepting, drain the schedule, seal the trace."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._run_task is not None:
            self.runner.stop()
            await self._run_task
            self._run_task = None
        drain = await self.runner.finish(grace)
        if self.recorder is not None:
            self.recorder.close(sim=self.driver.env.now, wall=time.time())
        if self._trace_export is not None:
            self.obs.write_trace(self._trace_export)
        return drain

    # -- connection handling ---------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    self.stats["bad_requests"] += 1
                    writer.write(
                        encode_response(
                            exc.status, json_body({"error": exc.detail}), keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, body, content_type, extra = self._route(request)
                writer.write(
                    encode_response(
                        status,
                        body,
                        content_type=content_type,
                        extra_headers=extra,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _route(self, request: Request) -> tuple[int, bytes, str, list]:
        """Dispatch one request; synchronous on purpose — the DES world
        is only ever touched between runner awaits.  Returns the encoded
        body and its content type: JSON everywhere except ``/metricsz``,
        whose Prometheus exposition is plain text."""
        self.stats["requests"] += 1
        try:
            status, payload, extra = self._dispatch(request)
        except HttpError as exc:
            self.stats["bad_requests"] += 1
            status, payload, extra = exc.status, {"error": exc.detail}, []
        except (SteeringError, LiveError) as exc:
            self.stats["bad_requests"] += 1
            status, payload, extra = 400, {"error": str(exc)}, []
        except ReproError as exc:
            status, payload, extra = 500, {"error": f"{type(exc).__name__}: {exc}"}, []
        if isinstance(payload, bytes):
            return status, payload, "text/plain; version=0.0.4; charset=utf-8", extra
        return status, json_body(payload), "application/json", extra

    def _dispatch(self, request: Request) -> tuple[int, dict, list]:
        method, path = request.method, request.path
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, f"{method} {path}")
            health = self._healthz()
            return (200 if health["ok"] else 503), health, []
        if path == "/statsz":
            if method != "GET":
                raise HttpError(405, f"{method} {path}")
            return 200, self.statsz(), []
        if path == "/metricsz":
            if method != "GET":
                raise HttpError(405, f"{method} {path}")
            return 200, self.metricsz(), []
        if path == "/sessions":
            if method != "POST":
                raise HttpError(405, f"{method} {path}")
            return self._post_session(request)
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "sessions":
            name = parts[1]
            if len(parts) == 2:
                if method == "GET":
                    return 200, self._get_session(name), []
                if method == "DELETE":
                    return self._delete_session(name)
                raise HttpError(405, f"{method} {path}")
            if len(parts) == 3 and parts[2] == "steer":
                if method != "POST":
                    raise HttpError(405, f"{method} {path}")
                return self._steer_session(name, request)
        raise HttpError(404, f"no route for {method} {path}")

    # -- endpoints -------------------------------------------------------

    def _healthz(self) -> dict:
        # shutdown() stops the pacer only after it closed the socket, so
        # a finished pacer task seen from a request means it died: sim
        # time is frozen and no session will ever leave "running".
        return {
            "ok": self._run_task is not None and not self._run_task.done(),
            "sim_now": self.driver.env.now,
            "active": len(self.driver.active),
            "queued": self.controller.queue_depth,
        }

    def metricsz(self) -> bytes:
        """The Prometheus text exposition, UTF-8 encoded.

        503 when the server was built with ``metrics: False`` — a
        scraper must see the difference between "no metrics here" and an
        empty-but-healthy registry."""
        if not self.config["metrics"]:
            raise HttpError(503, "metrics are disabled in this server's config")
        return self.obs.metrics.render().encode("utf-8")

    def statsz(self) -> dict:
        queue = self.controller.telemetry
        return {
            "server": dict(self.stats),
            "sessions": {
                "offered": self._counter,
                "active": len(self.driver.active),
                "states": dict(self.session_states),
            },
            "pacing": self.runner.stats(),
            "backpressure": self.controller.backpressure(),
            "queue": {
                "offered": queue.offered,
                "admitted": queue.admitted,
                "rejected": queue.rejected,
                "abandoned": queue.abandoned,
            },
            "sites": len(self.driver.sites),
            "config": dict(self.config),
        }

    def _retry_after_wall(self) -> int:
        """The 429 Retry-After header, in whole wall seconds (>= 1).

        Paced mode converts the controller's sim-second bound at the
        pacing rate.  Turbo mode (``rate is None``) has no fixed
        sim->wall mapping, so the bound is converted at the kernel's
        *measured* drain throughput (:attr:`PacedRunner.sim_rate`, the
        catch-up-pressure signal); before any throughput has been
        measured the backpressure scalar scales the ceiling instead —
        a fuller queue backs clients off harder.  Either way the
        result is clamped to :data:`RETRY_AFTER_CAP`, so a pathological
        (infinite-patience) sim bound saturates the header instead of
        overflowing ``math.ceil`` into a 500 on the 429 path.
        """
        sim = self.controller.retry_after()
        rate = self.runner.rate
        if rate is None:
            rate = self.runner.sim_rate
        if rate is not None and math.isfinite(sim):
            return max(1, min(RETRY_AFTER_CAP, math.ceil(sim / rate)))
        pressure = self.backpressure_signal.pressure()
        return max(1, math.ceil(pressure * RETRY_AFTER_CAP))

    def _post_session(self, request: Request) -> tuple[int, dict, list]:
        doc = request.json()
        unknown = set(doc) - set(_SESSION_FIELDS)
        if unknown:
            raise HttpError(
                400,
                f"unknown session fields {sorted(unknown)} (allowed: {sorted(_SESSION_FIELDS)})",
            )
        try:
            proto = ScenarioSpec(name="live-proto", **doc)
        except SteeringError as exc:
            raise HttpError(400, f"bad session spec: {exc}") from None
        spec = mint_spec(proto, self._counter, "live", digits=5)
        self._counter += 1
        cls = self.controller.classifier(spec)
        env = self.driver.env
        accepted = self.controller.offer(spec)
        if self.recorder is not None:
            self.recorder.record_arrival(
                spec,
                sim=env.now,
                wall=time.time(),
                cls=cls.name,
                outcome="queued" if accepted else "rejected",
            )
        if not accepted:
            retry = self._retry_after_wall()
            payload = {
                "error": "admission queue full",
                "name": spec.name,
                "retry_after": retry,
                "backpressure": self.controller.backpressure(),
            }
            return 429, payload, [("Retry-After", str(retry))]
        payload = {
            "name": spec.name,
            "class": cls.name,
            "state": "queued",
            "sim_now": env.now,
        }
        return 202, payload, []

    def _get_session(self, name: str) -> dict:
        state = self.session_states.get(name)
        if state is None:
            raise HttpError(404, f"unknown session {name!r}")
        payload = {
            "name": name,
            "state": state,
            "site": self.driver.site_of.get(name),
            "sim_now": self.driver.env.now,
        }
        tel = self.driver.telemetry.sessions.get(name)
        if tel is not None:
            payload["telemetry"] = {
                "ops": tel.ops,
                "timeouts": tel.timeouts,
                "errors": tel.errors,
                "completed": tel.completed,
                "failure": tel.failure,
                "admitted_at": tel.admitted_at,
                "finished_at": tel.finished_at,
            }
        return payload

    def _steer_session(self, name: str, request: Request) -> tuple[int, dict, list]:
        if name not in self.session_states:
            raise HttpError(404, f"unknown session {name!r}")
        value = decode_fields(_SteerBody, request.json(), LiveError, "steer body").value
        if not self.driver.request_steer(name, value):
            state = self.session_states[name]
            raise HttpError(409, f"session {name!r} is not running (state: {state})")
        self.stats["steers"] += 1
        if self.recorder is not None:
            self.recorder.record_event(
                "steer", sim=self.driver.env.now, wall=time.time(), name=name, value=value
            )
        pending = len(self.driver.steer_requests.get(name, ()))
        return 202, {"name": name, "state": "running", "pending_steers": pending}, []

    def _delete_session(self, name: str) -> tuple[int, dict, list]:
        if name not in self.session_states:
            raise HttpError(404, f"unknown session {name!r}")
        if not self.driver.cancel_session(name, reason="client request"):
            state = self.session_states[name]
            raise HttpError(409, f"session {name!r} is not running (state: {state})")
        self.stats["cancels"] += 1
        if self.recorder is not None:
            self.recorder.record_event(
                "cancel_request", sim=self.driver.env.now, wall=time.time(), name=name
            )
        return 202, {"name": name, "state": "cancelling"}, []
