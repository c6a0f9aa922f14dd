"""The Observability bundle: one object wiring obs into a whole fabric.

Construction is cheap and declarative::

    obs = Observability(tracing=True, breakers=True, quota=4)
    driver = FleetDriver(n_sites=4, obs=obs)          # binds env + fleet
    controller = AdmissionController(driver, ...)      # self-attaches
    world = ChaosHarness(driver, controller, pool=pool)  # attaches both

A piece switched off is its null twin, never ``None``, so hooks are
called unconditionally and "obs off = pre-obs bytes" holds in one place:
a ``FleetDriver`` built without ``obs=`` binds an all-off bundle and
runs byte-identically.  Only :meth:`snapshot`, :meth:`write_trace` and
:meth:`viz_frame_hook` ask which pieces are on.  Spans carry sim time
only, so same-seed runs produce identical span JSONL.

Metric names exposed (all ``repro_``-prefixed; see DESIGN.md):
admission (``repro_admission_*``), fleet (``repro_sessions_*``,
``repro_steer_*``, ``repro_find_latency_seconds``,
``repro_viz_frames_total``), pacing (``repro_pacing_*``), protection
(``repro_circuit_*``, ``repro_quota_*``, ``repro_backpressure``), chaos
(``repro_faults_*``), and the live front end (``repro_http_*``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ObsError
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.protect import NULL_BREAKER, NULL_QUOTAS, STATE_CODE, CircuitBreaker, TenantQuotas
from repro.obs.tracer import NULL_TRACER, Tracer

#: breaker set created by ``breakers=True``
DEFAULT_BREAKERS = {"broker": {}, "registry": {}}


class Observability:
    """Tracer + metrics + protection, wired across one fabric."""

    def __init__(
        self,
        tracing: bool = False,
        metrics: bool = True,
        breakers=None,
        quota: Optional[int] = None,
    ) -> None:
        self.tracer = Tracer() if tracing else NULL_TRACER
        self.metrics = MetricsRegistry() if metrics else NULL_REGISTRY
        self.quotas = NULL_QUOTAS
        if quota:
            self.quotas = TenantQuotas(int(quota))
            self._wire_quota_collector()
        spec = DEFAULT_BREAKERS if breakers is True else dict(breakers or {})
        self._breaker_spec = {k: dict(v) for k, v in spec.items()}
        self.breakers: dict[str, CircuitBreaker] = {}
        self.driver = None
        #: breaker name -> open "circuit-open" span
        self._open_spans: dict = {}
        #: id(fault) -> fault-window span
        self._fault_spans: dict = {}

    # -- binding -----------------------------------------------------------

    def breaker(self, name: str):
        """The named breaker, or :data:`NULL_BREAKER` when unguarded."""
        return self.breakers.get(name, NULL_BREAKER)

    def bind_driver(self, driver) -> "Observability":
        """Called by ``FleetDriver.__init__`` (idempotent): binds the sim
        clock, creates the breakers, hands the fleet's ledger the latency
        histograms its records feed, and subscribes the tracer to the
        session lifecycle first, so a lane opens before any other
        subscriber sees it."""
        if self.driver is not None:
            if self.driver is not driver:
                raise ObsError("observability is already bound to another driver")
            return self
        self.driver = driver
        self.tracer.bind(driver.env)
        for name, kwargs in self._breaker_spec.items():
            self._add_breaker(CircuitBreaker(name, driver.env, **kwargs))
        metrics, telemetry = self.metrics, driver.telemetry
        telemetry.steer_hist = metrics.histogram(
            "repro_steer_latency_seconds", "Per-op steering round-trip (sim s)"
        )
        telemetry.find_hist = metrics.histogram(
            "repro_find_latency_seconds", "Registry find latency (sim s)"
        )
        self.viz_counter = metrics.counter(
            "repro_viz_frames_total", "Samples ingested by viz services"
        )
        driver.session_observers.insert(0, self._on_session)
        g_active = metrics.gauge("repro_sessions_active", "Sessions running right now")
        g_sites = metrics.gauge("repro_sites", "Service sites in the fabric")
        c_outcome = metrics.counter(
            "repro_sessions_total", "Finished sessions by outcome", labels=("outcome",)
        )
        c_ops = metrics.counter(
            "repro_steer_ops_total", "Steering ops by outcome", labels=("outcome",)
        )

        def collect() -> None:
            totals = telemetry.totals()
            g_active.set(len(driver.active))
            g_sites.set(len(driver.sites))
            c_outcome.set_total(totals["completed"], outcome="completed")
            c_outcome.set_total(totals["failed"], outcome="failed")
            c_ops.set_total(totals["ops"], outcome="ok")
            c_ops.set_total(totals["timeouts"], outcome="timeout")
            c_ops.set_total(totals["errors"], outcome="error")

        metrics.add_collector(collect)
        return self

    def _on_session(self, kind: str, name: str, site_index: int) -> None:
        """Open a session's lane when it starts; close it with its outcome."""
        tracer = self.tracer
        if kind == "start":
            root = tracer.open_session(name, site=site_index)
            if tracer.admit_span(name) is None:
                # Batch fleets skip the admission queue: a zero-length
                # admit keeps the span tree shape uniform across modes.
                tracer.record_admit(name, tracer.instant("admit", parent=root, mode="batch"))
        else:
            tracer.close_session(name, kind)

    def viz_frame_hook(self, name: str):
        """Session ``name``'s per-sample viz callback (a frame count and a
        ``viz-frame`` event on its root); None when neither is recorded,
        so an unobserved viz service makes no call per sample."""
        if self.tracer is NULL_TRACER and self.metrics is NULL_REGISTRY:
            return None
        counter, tracer = self.viz_counter, self.tracer
        root = tracer.session_root(name)

        def on_frame(step: int) -> None:
            counter.inc()
            tracer.event(root, "viz-frame", step=step)

        return on_frame

    # -- component attachment ----------------------------------------------

    def attach_controller(self, controller) -> None:
        """Called by ``AdmissionController.__init__`` via ``driver.obs``."""
        controller.tracer = self.tracer
        controller.quotas = self.quotas
        metrics = self.metrics
        controller.telemetry.wait_hist = metrics.histogram(
            "repro_admission_wait_seconds", "Admission queue wait (sim s)"
        )
        c_offered = metrics.counter("repro_admission_offered_total", "Sessions offered")
        c_admitted = metrics.counter("repro_admission_admitted_total", "Sessions admitted")
        c_rejected = metrics.counter(
            "repro_admission_rejected_total", "Sessions rejected (backpressure + quota)"
        )
        c_abandoned = metrics.counter(
            "repro_admission_abandoned_total", "Sessions that ran out of patience"
        )
        c_requeued = metrics.counter(
            "repro_admission_requeued_total", "Recovery requeues (subset of offered)"
        )
        g_depth = metrics.gauge("repro_admission_queue_depth", "Queued sessions")
        g_limit = metrics.gauge("repro_admission_queue_limit", "Bounded queue size")

        def collect() -> None:
            queue = controller.telemetry
            c_offered.set_total(queue.offered)
            c_admitted.set_total(queue.admitted)
            c_rejected.set_total(queue.rejected)
            c_abandoned.set_total(queue.abandoned)
            c_requeued.set_total(queue.requeued)
            g_depth.set(controller.queue_depth)
            g_limit.set(controller.queue_limit)

        metrics.add_collector(collect)

    def _wire_quota_collector(self) -> None:
        metrics, quotas = self.metrics, self.quotas
        g_inflight = metrics.gauge(
            "repro_quota_inflight", "Inflight sessions per tenant", labels=("tenant",)
        )
        c_rejected = metrics.counter(
            "repro_quota_rejected_total", "Offers shed by tenant quota", labels=("tenant",)
        )
        g_limit = metrics.gauge("repro_quota_max_inflight", "Per-tenant inflight cap")

        def collect() -> None:
            g_limit.set(quotas.max_inflight)
            for tenant, n in quotas._inflight.items():
                g_inflight.set(n, tenant=tenant)
            for tenant, n in quotas.rejections.items():
                c_rejected.set_total(n, tenant=tenant)

        metrics.add_collector(collect)

    def attach_pool(self, pool) -> None:
        """Wire span + breaker hooks into a :class:`BrokerPool`.

        Call after :meth:`bind_driver` so the breakers exist — they need
        the sim clock."""
        pool.tracer = self.tracer
        pool.breaker = self.breaker("broker")

    def attach_runner(self, runner) -> None:
        """Scrape a :class:`PacedRunner`'s catch-up accounting."""
        metrics = self.metrics
        c_ticks = metrics.counter("repro_pacing_ticks_total", "Runner ticks that stepped")
        c_catchups = metrics.counter(
            "repro_pacing_catchups_total", "Full batches that still left due events"
        )
        c_events = metrics.counter("repro_pacing_events_total", "Events stepped under pacing")
        g_behind = metrics.gauge(
            "repro_pacing_behind_seconds", "Current lag behind the wall clock"
        )
        g_max_behind = metrics.gauge(
            "repro_pacing_max_behind_seconds", "Worst observed pacing lag"
        )
        g_rate = metrics.gauge(
            "repro_pacing_rate", "Sim seconds per wall second (0 = turbo)"
        )

        def collect() -> None:
            stats = runner.stats()
            c_ticks.set_total(stats["ticks"])
            c_catchups.set_total(stats["catchups"])
            c_events.set_total(stats["events"])
            g_behind.set(stats["behind"])
            g_max_behind.set(stats["max_behind"])
            g_rate.set(stats["rate"] if stats["rate"] is not None else 0.0)

        metrics.add_collector(collect)

    def attach_backpressure(self, signal) -> None:
        metrics = self.metrics
        g_pressure = metrics.gauge(
            "repro_backpressure", "Fabric pressure signal in [0, 1]"
        )
        metrics.add_collector(lambda: g_pressure.set(signal.pressure()))

    def attach_injector(self, injector) -> None:
        """Mirror chaos fault windows into metrics and fabric-lane spans."""
        metrics, tracer = self.metrics, self.tracer
        c_faults = metrics.counter("repro_faults_total", "Faults applied", labels=("kind",))
        g_active = metrics.gauge(
            "repro_faults_active", "Faults currently applied", labels=("kind",)
        )

        def on_fault(fault, phase: str) -> None:
            kind = type(fault).__name__
            if phase == "apply":
                c_faults.inc(kind=kind)
                g_active.inc(kind=kind)
                self._fault_spans[id(fault)] = tracer.begin(
                    f"fault:{kind}", cat="chaos", detail=fault.describe()
                )
            elif phase == "revert":
                g_active.dec(kind=kind)
                # A fault applied before this hook was attached has no span.
                span = self._fault_spans.pop(id(fault), None)
                if span is not None:
                    tracer.end(span)

        injector.on_fault.append(on_fault)

    def attach_http_stats(self, stats: dict) -> None:
        """Scrape a LiveServer's request counters."""
        metrics = self.metrics
        counters = {
            key: metrics.counter(f"repro_http_{key}_total", f"HTTP {key.replace('_', ' ')}")
            for key in stats
        }

        def collect() -> None:
            for key, counter in counters.items():
                counter.set_total(stats[key])

        metrics.add_collector(collect)

    # -- breaker observability ---------------------------------------------

    def _add_breaker(self, breaker: CircuitBreaker) -> None:
        breaker.observers.append(self._on_breaker_transition)
        self.breakers[breaker.name] = breaker
        metrics, name = self.metrics, breaker.name
        g_state = metrics.gauge(
            "repro_circuit_state",
            "Breaker state (0 closed, 1 half-open, 2 open)",
            labels=("breaker",),
        )
        c_calls = metrics.counter(
            "repro_circuit_calls_total",
            "Guarded calls by outcome",
            labels=("breaker", "outcome"),
        )

        def collect() -> None:
            g_state.set(STATE_CODE[breaker.state], breaker=name)
            c_calls.set_total(breaker.successes, breaker=name, outcome="success")
            c_calls.set_total(breaker.failures, breaker=name, outcome="failure")
            c_calls.set_total(breaker.shorted, breaker=name, outcome="shorted")

        metrics.add_collector(collect)

    def _on_breaker_transition(self, breaker, old: str, new: str) -> None:
        self.metrics.counter(
            "repro_circuit_transitions_total",
            "Breaker state transitions",
            labels=("breaker", "to"),
        ).inc(breaker=breaker.name, to=new)
        tracer = self.tracer
        if new == "open":
            self._open_spans[breaker.name] = tracer.begin(
                "circuit-open", cat="protect", breaker=breaker.name
            )
            return
        if old == "open":
            tracer.end(self._open_spans.pop(breaker.name), to=new)
        if new != "closed":
            tracer.instant(f"circuit-{new}", cat="protect", breaker=breaker.name)

    # -- artifacts ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able obs dump for batch runs (metrics + protection); a
        piece switched off reports ``None``."""
        tracer, metrics, quotas = self.tracer, self.metrics, self.quotas
        return {
            "metrics": None if metrics is NULL_REGISTRY else metrics.snapshot(),
            "trace": None if tracer is NULL_TRACER else tracer.counts(),
            "breakers": {n: b.snapshot() for n, b in sorted(self.breakers.items())},
            "quotas": None if quotas is NULL_QUOTAS else quotas.snapshot(),
        }

    def write_trace(self, path) -> int:
        """Dump the span stream as JSONL; returns the event count."""
        if self.tracer is NULL_TRACER:
            raise ObsError("this Observability was built with tracing=False")
        return self.tracer.write_jsonl(path)
