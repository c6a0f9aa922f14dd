"""Unit tests for the PR-4 kernel hot paths and the repro.perf package."""

import json
from collections import deque

import numpy as np
import pytest

from repro.des import AllOf, Environment, Event, Interrupt, Mailbox, Store, Timeout
from repro.des.core import First, Process
from repro.des.resources import ResourceRequest, StoreGet
from repro.errors import ReproError, SimulationError
from repro.perf import load_bench, peak_rss_bytes, write_bench


# -- timeouts ----------------------------------------------------------------


def test_held_timeout_is_never_recycled():
    # A timeout the generator frame still references keeps its documented
    # post-processing Event API (.value/.ok/.processed): the kernel never
    # hands a processed timeout out again.
    env = Environment()
    seen = {}

    def holder():
        t = env.timeout(1.0, value="x")
        yield t
        yield env.timeout(1.0)
        t3 = env.timeout(1.0, value="z")
        seen["same_obj"] = t3 is t
        yield t3
        seen["t_value"] = t.value
        seen["t_processed"] = (t.callbacks is None)

    env.process(holder())
    env.run()
    assert seen == {"same_obj": False, "t_value": "x", "t_processed": True}


def test_timeout_with_extra_callback_is_not_recycled():
    env = Environment()
    seen = []
    ev = env.timeout(1.0, value="x")
    ev.callbacks.append(lambda e: seen.append(e.value))
    env.run()
    assert seen == ["x"]
    # The event object stays readable after processing.
    assert ev._ok and ev.value == "x"


def test_pool_respects_explicit_timeout_values():
    # (named for the timeout pool this once guarded; the contract stays)
    env = Environment()
    got = []

    def collect():
        got.append((yield env.timeout(1.0, value="a")))
        got.append((yield env.timeout(1.0, value="b")))
        got.append((yield env.timeout(1.0)))

    env.process(collect())
    env.run()
    assert got == ["a", "b", None]


def test_timeout_until_is_float_exact():
    env = Environment()
    env.run(until=0.07)  # a now with float residue
    # 0.07 + 0.01 * k accumulated differs from 0.17 the literal; the
    # absolute-time API must hit the requested key exactly.
    target = 0.07
    for _ in range(10):
        target = target + 0.01
    fired_at = []

    def waker():
        yield env.timeout_until(target)
        fired_at.append(env.now)

    env.process(waker())
    env.run()
    assert fired_at == [target]
    with pytest.raises(SimulationError):
        env.timeout_until(env.now - 1.0)


# -- tombstoned interrupts ---------------------------------------------------


def test_interrupt_leaves_tombstone_and_stale_timer_is_ignored():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(10.0)
            log.append("timer")
        except Interrupt:
            log.append(("interrupted", env.now))
            yield env.timeout(1.0)
            log.append(("resumed", env.now))

    def waker(p):
        yield env.timeout(3.0)
        p.interrupt("now")

    p = env.process(sleeper())
    env.process(waker(p))
    env.run()
    # The abandoned 10s timer fired at t=10 with its stale callback
    # still attached, and was dropped without resuming the process.
    assert log == [("interrupted", 3.0), ("resumed", 4.0)]
    assert p.value is None
    assert env.now == 10.0


def test_double_interrupt_delivers_both():
    env = Environment()
    hits = []

    def sleeper():
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as intr:
                hits.append(intr.cause)

    def waker(p):
        yield env.timeout(1.0)
        p.interrupt("first")
        p.interrupt("second")

    p = env.process(sleeper())
    env.process(waker(p))
    env.run()
    assert hits == ["first", "second"]


def test_pending_failures_is_a_deque():
    env = Environment()
    assert isinstance(env._pending_failures, deque)


# -- slots -------------------------------------------------------------------


@pytest.mark.parametrize(
    "cls", [Event, Timeout, Process, First, AllOf, Store, Mailbox, StoreGet, ResourceRequest]
)
def test_kernel_classes_have_no_instance_dict(cls):
    # __slots__ everywhere on the per-event classes: instance dicts are
    # pure allocation overhead at millions of events per run.
    assert not any("__dict__" in vars(c) for c in cls.__mro__[:-1]), cls


# -- parked pumps ------------------------------------------------------------


def _pump_consumer(env, link, mode, out, tag=None):
    """A pump-shaped consumer: 0.01 poll grid, 0.0 re-round on progress.
    Logs ``(time, msg)``, or ``(time, tag, msg)`` into a shared log."""
    poll = link.poll
    while True:
        progressed = False
        while True:
            ok, msg = poll()
            if not ok:
                break
            progressed = True
            out.append((env.now, msg) if tag is None else (env.now, tag, msg))
            if msg == "last":
                return
        if progressed:
            yield env.timeout(0.0)
        elif mode == "parked":
            from repro.steering.api import parked_tick

            yield from parked_tick(env, link, 0.01)
        else:
            yield env.timeout(0.01)


def _run_pump_world(mode):
    from repro.net.network import Network

    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=0.013, bandwidth=1e6)
    listener = net.host("b").listen(9)
    out = []

    def server():
        conn = yield from listener.accept()
        yield from _pump_consumer(env, conn, mode, out)

    def client():
        conn = yield from net.host("a").connect("b", 9)
        for i, gap in enumerate([0.037, 0.0003, 1.773, 0.25, 0.0101, 3.9]):
            yield env.timeout(gap)
            conn.send(f"m{i}")
        yield env.timeout(0.5)
        conn.send("last")

    env.process(server())
    env.process(client())
    env.run()
    return out, env.events_processed


def test_parked_pump_is_virtual_time_identical_to_polling():
    # The parked pump must process every message at exactly the virtual
    # time the polling pump would have — the float-accumulated 0.01 grid
    # — while consuming an order of magnitude fewer events.
    poll_out, poll_events = _run_pump_world("poll")
    park_out, park_events = _run_pump_world("parked")
    assert park_out == poll_out
    assert park_events < poll_events / 5


def test_parked_pumps_sharing_an_instant_fire_in_polling_order():
    # Three pumps on one poll grid log into one list, so the order in
    # which they handle messages at a shared instant is visible.  Pump 1
    # handles a message early; later all three get one inside one tick,
    # arriving in yet another order.
    from repro.net.network import Network

    def world(mode):
        log = []
        env = Environment()
        net = Network(env)
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", latency=0.0013, bandwidth=1e9)
        listener = net.host("b").listen(9)

        def server():
            conns = []
            for _ in range(3):
                conns.append((yield from listener.accept()))
            for pump, conn in enumerate(conns):  # one instant, one grid
                env.process(_pump_consumer(env, conn, mode, log, tag=pump))

        def client():
            conns = []
            for _ in range(3):
                conns.append((yield from net.host("a").connect("b", 9)))
            yield env.timeout(0.1)
            conns[1].send("early")
            yield env.timeout(0.1)
            for i in (2, 1, 0):
                yield env.timeout(0.001)
                conns[i].send("burst")
            yield env.timeout(0.1)
            for conn in conns:
                conn.send("last")

        env.process(server())
        env.process(client())
        env.run()
        return log, env.events_processed

    polled, polled_events = world("poll")
    parked, parked_events = world("parked")
    assert parked == polled
    # the burst reached the pumps as 2, 1, 0 but the poll grid says 0, 2, 1
    # (pump 1 handled "early" and re-polled behind the two idle pumps)
    burst = [pump for _t, pump, msg in polled if msg == "burst"]
    assert burst == [0, 2, 1]
    assert len({t for t, _p, msg in polled if msg == "burst"}) == 1
    assert parked_events < polled_events / 2


# -- wire-size memoization ---------------------------------------------------


def test_approx_size_envelope_cache_matches_reference():
    from repro.steering.control import Ack, SetParam, StatusReport
    from repro.wire import codec

    def reference(value):
        """The seed implementation, sans cache."""
        if value is None or isinstance(value, bool):
            return 1
        if isinstance(value, (int, float, np.integer, np.floating)):
            return 9
        if isinstance(value, str):
            return 5 + len(value.encode("utf-8"))
        if isinstance(value, (bytes, bytearray, memoryview)):
            return 5 + len(value)
        if isinstance(value, np.ndarray):
            return 16 + value.nbytes
        if isinstance(value, dict):
            return 5 + sum(
                reference(str(k)) + reference(v) for k, v in value.items()
            )
        if isinstance(value, (list, tuple, set)):
            return 5 + sum(reference(v) for v in value)
        inner = getattr(value, "__dict__", None)
        if isinstance(inner, dict):
            return 16 + reference(inner)
        return 64

    messages = [
        Ack(3, True, "SetParam", result=2.0),
        Ack(4, False, "Stop", error="nope"),
        SetParam(name="g", value=1.5),
        StatusReport(step=7, time=3.5, observables={"demix": 0.1},
                     parameters={"g": 1.5}, paused=False),
        {"service": "steer-1", "op": "invoke", "body": {"name": "g"}},
        [1, 2.5, "three", None, b"0123"],
        np.zeros((4, 4), dtype=np.float32),
    ]
    for msg in messages:
        # twice: cold (fills the envelope cache) and warm (uses it)
        assert codec.approx_size(msg) == reference(msg)
        assert codec.approx_size(msg) == reference(msg)


# -- unified bench emission --------------------------------------------------


def test_write_and_load_bench_roundtrip(tmp_path):
    path = write_bench(
        tmp_path / "BENCH_x.json", "x", {"k": 1}, wall_seconds=2.0,
        events=1000,
    )
    doc = load_bench(path)
    assert doc["schema"] == "repro.perf/bench-v1"
    assert doc["bench"] == "x"
    assert doc["results"] == {"k": 1}
    assert doc["perf"]["wall_seconds"] == 2.0
    assert doc["perf"]["events_per_sec"] == 500.0
    assert doc["perf"]["peak_rss_bytes"] > 0


def test_load_bench_refuses_pre_envelope_payloads(tmp_path):
    p = tmp_path / "BENCH_old.json"
    p.write_text(json.dumps({"128": {"wall_seconds": 3.0}}))
    with pytest.raises(ReproError, match="BENCH_old.json: not a repro.perf/bench-v1"):
        load_bench(p)


def test_peak_rss_positive():
    assert peak_rss_bytes() > 0


# -- regression gate ---------------------------------------------------------


def test_gate_passes_and_fails_correctly(tmp_path, monkeypatch):
    from repro.perf import gate

    class FakeReport:
        completed = 4
        ops = 40

    monkeypatch.setattr(
        gate, "run_fleet", lambda n: (FakeReport(), 1.0, 5000)
    )
    monkeypatch.setattr(gate, "peak_rss_bytes", lambda: 50_000_000)
    baseline = tmp_path / "BENCH_fleet_scaling.json"

    def base(**entry):
        entry = {"wall_seconds": 0.9, "completed": 4, "ops": 40, "events": 5000,
                 "peak_rss_bytes": 50_000_000, **entry}
        write_bench(baseline, "fleet_scaling", {"4": entry})

    base()
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert ok, verdict

    # Wall regression beyond threshold fails.
    base(wall_seconds=0.5)
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert not ok and "regressed" in verdict

    # Workload drift fails even when faster.
    base(wall_seconds=10.0, completed=5)
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert not ok and "drifted" in verdict

    # One event more than the baseline fails whatever the wall says;
    # fewer events is how the baseline gets better.
    base(wall_seconds=10.0, events=4999)
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert not ok and "1 more kernel events" in verdict
    base(events=5001)
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert ok, verdict

    # Peak RSS may sit up to 25 % over the row's; a per-session
    # allocation nobody reads (here +30 %) fails whatever the wall says.
    base(wall_seconds=10.0, peak_rss_bytes=40_000_000)
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert ok, verdict
    base(wall_seconds=10.0, peak_rss_bytes=38_000_000)
    ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
    assert not ok and "peak RSS +32%" in verdict

    # A baseline from before counts were recorded cannot gate them.
    for missing in ("events", "peak_rss_bytes"):
        base()
        doc = load_bench(baseline)["results"]
        del doc["4"][missing]
        write_bench(baseline, "fleet_scaling", doc)
        ok, verdict = gate.check(baseline, sessions=4, threshold=0.25)
        assert not ok and "regenerate BENCH_fleet_scaling.json" in verdict

    # Missing size entry is an explicit failure, not a KeyError.
    ok, verdict = gate.check(baseline, sessions=64, threshold=0.25)
    assert not ok and "no entry" in verdict


def test_kernel_gate_answers_old_two_level_baseline_in_one_line(tmp_path):
    from repro.perf import gate

    cell = {"events": 1, "wall_seconds": 1.0, "events_per_sec": 1.0}
    baseline = tmp_path / "BENCH_kernel.json"
    write_bench(baseline, "kernel", {"heap": {"timer-churn": cell}, "calendar": {}})
    ok, verdict = gate.check_kernel(baseline)
    assert not ok
    assert "regenerate BENCH_kernel.json" in verdict and "\n" not in verdict
