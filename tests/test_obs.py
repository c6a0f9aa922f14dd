"""repro.obs: causal spans, Prometheus metrics, self-protection.

Four contracts pinned here:

* **causality** — with tracing on, every steer op's span parents back
  (transitively) to its session's admit span, and the whole span stream
  is byte-identical across two same-seed runs;
* **exposition** — ``MetricsRegistry.render`` conforms to the
  Prometheus text format (HELP/TYPE pairs, cumulative ``le`` buckets,
  escaped labels, trailing newline);
* **protection** — the circuit breaker walks
  closed -> open -> half-open -> {closed, open} on the sim clock under a
  seeded fault schedule; tenant quotas shed the noisy tenant only;
* **zero-cost default** — the golden fleet report stays byte-identical
  to the seed tree even with tracing and metrics ON (obs hooks must
  never touch RNG or scheduling).
"""

import json
import pathlib
import re

import pytest

from repro.chaos import ChaosHarness, FaultSchedule, SiteOutage
from repro.des import Environment
from repro.errors import CircuitOpen, ObsError
from repro.fleet import FleetDriver, fleet_of
from repro.load import AdmissionController, PoissonArrivals
from repro.obs import (
    BackpressureSignal,
    CircuitBreaker,
    MetricsRegistry,
    Observability,
    TenantQuotas,
    Tracer,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _obs_fleet(tracing=True, quota=None, seed=7, rate=0.4):
    obs = Observability(tracing=tracing, metrics=True, breakers=True,
                        quota=quota)
    driver = FleetDriver(n_sites=2, queue_slots=3, obs=obs)
    ctl = AdmissionController(driver, queue_limit=8)
    arrivals = PoissonArrivals(rate=rate, horizon=10.0, seed=seed,
                               duration=2.0, cadence=0.5)
    report = ctl.run(arrivals)
    return obs, ctl, report


# -- causal spans ------------------------------------------------------------


def test_every_steer_op_parents_back_to_its_admit_span():
    obs, _ctl, report = _obs_fleet()
    tracer = obs.tracer
    assert report.completed > 0
    ops = tracer.find("steer-op")
    assert ops, "the fleet steered nothing"
    admit_ids = {s.span_id for s in tracer.find("admit")}
    for op in ops:
        chain = tracer.ancestry(op)
        assert any(s.span_id in admit_ids for s in chain), (
            f"steer-op {op.span_id} has no admit ancestor"
        )
        # ... and the chain tops out at the session root.
        assert chain[-1].name == "session"
        assert chain[-1].session == op.session


def test_span_tree_shape_and_outcomes():
    obs, ctl, report = _obs_fleet()
    tracer = obs.tracer
    counts = tracer.counts()["by_name"]
    n = report.completed + report.failed
    assert counts["session"] == counts["admit"] == counts["connect"] == n
    # Each session root closed with its outcome.
    for root in tracer.find("session"):
        assert root.end is not None
        assert root.attrs["outcome"] in ("complete", "fail", "cancel")
    for admit in tracer.find("admit"):
        assert admit.attrs["outcome"] == "admitted"
    # Viz frames land as instant events on the session roots.
    frames = sum(len(root.events) for root in tracer.find("session"))
    assert frames > 0
    assert all(
        name == "viz-frame"
        for root in tracer.find("session")
        for name, _, _ in root.events
    )


def test_same_seed_traced_runs_emit_identical_jsonl(tmp_path):
    paths = []
    for i in range(2):
        obs, _ctl, _report = _obs_fleet()
        path = tmp_path / f"trace-{i}.jsonl"
        obs.write_trace(path)
        paths.append(path)
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    # ... and it is valid Chrome-trace JSONL with metadata + spans.
    events = [json.loads(line) for line in a.splitlines()]
    phases = {e["ph"] for e in events}
    assert phases >= {"M", "X", "i"}
    assert all(e["ph"] != "X" or e["dur"] >= 0 for e in events)


@pytest.mark.parametrize("at", [0.61, 0.8, 3.1, 5.5])
def test_a_cancelled_session_leaves_no_span_open(at):
    # Cancels landing mid-connect, mid-find and mid-op: every span the
    # session began ends with the session, carrying its outcome.
    obs = Observability(tracing=True)
    driver = FleetDriver(fleet_of(4), n_sites=2, obs=obs)

    def cancel_all():
        yield driver.env.timeout(at)
        for name in list(driver.active):
            driver.cancel_session(name, "test")

    driver.env.process(cancel_all())
    report = driver.run(wall_seconds=None)
    assert report.failed > 0
    assert [s.name for s in obs.tracer.spans if s.end is None] == []
    cut = [s for s in obs.tracer.spans
           if s.name != "session" and s.attrs.get("outcome") == "cancel"]
    assert cut
    for span in cut:
        assert span.end == obs.tracer.session_root(span.session).end


def test_tracer_requires_a_bound_environment():
    tracer = Tracer()
    with pytest.raises(ObsError, match="no environment bound"):
        tracer.begin("orphan")
    tracer.bind(Environment())
    with pytest.raises(ObsError, match="another environment"):
        tracer.bind(Environment())


# -- golden pins with obs ON -------------------------------------------------


def test_fleet_report_stays_golden_with_obs_enabled():
    # The strongest determinism claim: obs hooks touch no RNG and no
    # scheduling, so even a *traced* run reproduces the seed report
    # byte for byte.
    obs = Observability(tracing=True, metrics=True, breakers=True)
    specs = fleet_of(8, stagger=0.2)
    driver = FleetDriver(specs, n_sites=4, obs=obs)
    report = driver.run(wall_seconds=None)
    golden = json.loads((GOLDEN / "fleet_report_8.json").read_text())
    assert report.to_dict() == golden
    assert obs.tracer.counts()["sessions"] == 8


def test_chaos_harness_attaches_its_injector_to_the_drivers_obs():
    # No attach_injector call: building the harness is enough for the
    # fault window to reach the trace and the metrics.
    obs = Observability(tracing=True)
    driver = FleetDriver(fleet_of(2, stagger=0.2), n_sites=2, obs=obs)
    world = ChaosHarness(driver)
    world.install(FaultSchedule([SiteOutage(at=1.0, duration=1.0, site=1)]))
    driver.run(wall_seconds=None)
    (span,) = [s for s in obs.tracer.spans if s.name == "fault:SiteOutage"]
    assert span.cat == "chaos" and span.end is not None
    assert 'repro_faults_total{kind="SiteOutage"} 1' in obs.metrics.render()


def test_batch_fleets_get_synthetic_admit_spans():
    obs = Observability(tracing=True)
    driver = FleetDriver(fleet_of(2, stagger=0.2), n_sites=2, obs=obs)
    driver.run(wall_seconds=None)
    admits = obs.tracer.find("admit")
    assert len(admits) == 2
    assert all(a.attrs.get("mode") == "batch" for a in admits)
    assert all(a.end == a.start for a in admits)


# -- Prometheus exposition ---------------------------------------------------

_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _parse_exposition(text: str) -> dict:
    """Minimal conformance parse: family -> {type, help, samples}."""
    assert text.endswith("\n")
    families: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert _NAME.match(name), name
            families[name] = {"help": help_text, "type": None, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name in families, f"TYPE before HELP for {name}"
            assert kind in ("counter", "gauge", "histogram")
            families[name]["type"] = kind
        else:
            assert current is not None, f"sample before any family: {line}"
            sample, _, value = line.rpartition(" ")
            float(value)  # must parse
            families[current]["samples"].append((sample, float(value)))
    return families


def test_registry_renders_conformant_exposition():
    obs, ctl, report = _obs_fleet(quota=4)
    families = _parse_exposition(obs.metrics.render())
    # The acceptance surface: admission, pacing-independent fleet
    # series, and the circuit breakers are all present.
    for required in (
        "repro_admission_offered_total",
        "repro_admission_wait_seconds",
        "repro_steer_latency_seconds",
        "repro_steer_ops_total",
        "repro_sessions_total",
        "repro_circuit_state",
        "repro_quota_inflight",
    ):
        assert required in families, required
        assert families[required]["type"] is not None
    # Offered counter agrees with the queue telemetry.
    queue = ctl.telemetry
    offered = dict(families["repro_admission_offered_total"]["samples"])
    assert offered["repro_admission_offered_total"] == queue.offered
    # Histogram buckets are cumulative and end at +Inf == _count.
    hist = families["repro_admission_wait_seconds"]
    assert hist["type"] == "histogram"
    buckets = [v for s, v in hist["samples"] if "_bucket{" in s]
    assert buckets == sorted(buckets)
    inf = [v for s, v in hist["samples"] if 'le="+Inf"' in s]
    count = [v for s, v in hist["samples"] if s.endswith("_count")]
    assert inf == count == [queue.admitted]


def test_label_escaping_and_bad_names_rejected():
    reg = MetricsRegistry()
    counter = reg.counter("repro_test_total", "x", labels=("tenant",))
    counter.inc(tenant='we"ird\\ten\nant')
    line = [l for l in reg.render().splitlines() if "{" in l][0]
    assert '\\"' in line and "\\\\" in line and "\\n" in line
    with pytest.raises(ObsError):
        reg.counter("0bad", "x")
    with pytest.raises(ObsError):
        reg.counter("repro_test_total", "x", labels=("other",))  # reshape


# -- protection --------------------------------------------------------------


def test_breaker_walks_the_state_machine_on_the_sim_clock():
    env = Environment()
    breaker = CircuitBreaker("dep", env, failure_threshold=3,
                             recovery_time=5.0, half_open_max=1)
    seen = []
    breaker.observers.append(lambda b, old, new: seen.append((env.now, old, new)))

    # A seeded fault schedule: the dependency is dark during [1, 6),
    # then flaps once at its first probe, then heals for good.
    def world():
        for t in (1.0, 2.0, 3.0):  # three consecutive failures -> OPEN
            yield env.timeout(t - env.now)
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        yield env.timeout(1.0)  # t=4: inside the window, calls shed
        assert not breaker.allow()
        with pytest.raises(CircuitOpen):
            breaker.guard("probe")
        yield env.timeout(4.5)  # t=8.5 >= 3+5: half-open probe admitted
        assert breaker.allow()
        breaker.record_failure()  # probe fails -> re-OPEN
        assert breaker.state == "open"
        yield env.timeout(6.0)  # t=14.5: next probe succeeds -> CLOSED
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    env.process(world())
    env.run()
    assert [(old, new) for _, old, new in seen] == [
        ("closed", "open"),
        ("open", "half-open"),
        ("half-open", "open"),
        ("open", "half-open"),
        ("half-open", "closed"),
    ]
    assert seen == breaker.transitions  # observer saw the audit trail
    assert breaker.snapshot()["transitions"] == [list(t) for t in breaker.transitions]
    # t=4 shed the raw allow() plus the guarded call.
    assert breaker.shorted == 2


def test_shadow_breaker_observes_without_shedding():
    env = Environment()
    breaker = CircuitBreaker("dep", env, failure_threshold=1,
                             recovery_time=5.0, enforcing=False)
    breaker.record_failure()
    assert breaker.state == "open"
    breaker.guard("anything")  # must NOT raise in shadow mode


def test_quota_sheds_only_the_noisy_tenant():
    obs, ctl, report = _obs_fleet(quota=2, rate=1.2)
    queue = ctl.telemetry
    assert queue.rejected > 0
    snap = obs.quotas.snapshot()
    assert snap["max_inflight"] == 2
    assert sum(snap["rejections"].values()) > 0
    # Conservation law still holds with quota rejects in the mix.
    assert queue.offered == (
        queue.admitted + queue.rejected + queue.abandoned + ctl.queue_depth
    )
    # Rejected offers got a traced verdict.
    rejects = obs.tracer.find("reject")
    assert len(rejects) == queue.rejected
    assert {s.attrs["reason"] for s in rejects} <= {"quota", "queue-full"}


def test_quota_acquire_is_idempotent_and_released():
    class Spec:
        def __init__(self, name, sim):
            self.name, self.sim = name, sim

    quotas = TenantQuotas(1)
    a0, a1 = Spec("a-0", "lb3d"), Spec("a-1", "lb3d")
    assert quotas.try_acquire(a0)
    assert quotas.try_acquire(a0)  # requeue of the same session: free
    assert not quotas.try_acquire(a1)  # tenant cap reached
    assert quotas.try_acquire(Spec("b-0", "crowd"))  # other tenant fine
    quotas.release(a0.name)
    quotas.release(a0.name)  # idempotent
    assert quotas.try_acquire(a1)
    assert quotas.inflight() == {"crowd": 1, "lb3d": 1}


def test_backpressure_blends_queue_and_pacing_lag():
    class FakeCtl:
        queue_depth, queue_limit = 3, 12

    class FakeRunner:
        behind = 0.8

    sig = BackpressureSignal(FakeCtl(), runner=FakeRunner(), behind_limit=1.0)
    assert sig.pressure() == pytest.approx(0.8)  # lag dominates
    FakeRunner.behind = 0.0
    sig2 = BackpressureSignal(FakeCtl(), runner=FakeRunner(), behind_limit=1.0)
    assert sig2.pressure() == pytest.approx(3 / 12)
    assert 0.0 <= sig2.snapshot()["pressure"] <= 1.0


def test_autoscaler_grows_on_pressure_alone():
    from repro.load import ReactiveAutoscaler

    obs = Observability(metrics=False)
    driver = FleetDriver(n_sites=1, queue_slots=2, obs=obs)
    ctl = AdmissionController(driver, queue_limit=12)

    class Pressure:
        value = 1.0

        def pressure(self):
            return self.value

    scaler = ReactiveAutoscaler(
        ctl, max_sites=2, high_depth=100, cooldown=0.0,
        pressure=Pressure(), pressure_high=0.75,
    )
    driver.env.run(until=1.5)  # one scaler tick, empty queue, full pressure
    assert [kind for _, kind, _ in scaler.events] == ["grow"]


# -- snapshots ---------------------------------------------------------------


def test_snapshot_is_json_able_and_complete():
    obs, _ctl, _report = _obs_fleet(quota=4)
    snap = obs.snapshot()
    json.dumps(snap)  # must serialize
    assert set(snap) == {"metrics", "trace", "breakers", "quotas"}
    assert set(snap["breakers"]) == {"broker", "registry"}
    assert snap["trace"]["sessions"] > 0
    assert snap["metrics"]["repro_admission_offered_total"]
