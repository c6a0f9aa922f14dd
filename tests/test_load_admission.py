"""Admission controller unit tests against a lightweight fake driver.

The fake serves each admitted session for a fixed virtual time, so queue
mechanics (priority, abandonment, backpressure, slot holding) can be
asserted without the full UNICORE/OGSA fabric — the integration half
lives in test_load_openloop.py.
"""

import pytest

from repro.des import Environment
from repro.errors import LoadError
from repro.fleet import FleetTelemetry
from repro.fleet.spec import ScenarioSpec
from repro.load import AdmissionController, CapacityLedger, SloClass, TraceArrivals
from repro.obs import Observability


class FakeDriver:
    """FleetDriver stand-in: admit() runs a timed no-op session."""

    def __init__(self, env, service_time=2.0):
        self.env = env
        self.telemetry = FleetTelemetry()
        self.obs = Observability(metrics=False)  # a FleetDriver's is never None
        self.service_time = service_time
        self.launched = []

    def admit(self, spec, site=None):
        self.launched.append((self.env.now, spec.name, site))
        return self.env.process(self._serve(spec))

    def _serve(self, spec):
        yield self.env.timeout(self.service_time)
        self.telemetry.session(spec.name).mark_completed(self.env.now)


def _spec(name, participants=1):
    return ScenarioSpec(name=name, participants=participants,
                        duration=1.0, cadence=0.5)


def _world(slots=(1,), service_time=2.0, **ctl_kwargs):
    env = Environment()
    driver = FakeDriver(env, service_time=service_time)
    ledger = CapacityLedger()
    for i, n in enumerate(slots):
        ledger.register_site(i, n)
    ctl = AdmissionController(driver, ledger=ledger, **ctl_kwargs)
    return env, driver, ctl


def test_immediate_admission_when_capacity_free():
    env, driver, ctl = _world(slots=(2,))
    arrivals = TraceArrivals([0.5, 1.0], suite=[_spec("proto")], prefix="a")
    ctl.feed(arrivals)
    env.run(until=10.0)
    q = ctl.telemetry
    assert q.offered == q.admitted == 2
    assert q.rejected == q.abandoned == 0
    # No queueing at all: waits are zero.
    assert q.wait.percentile(99) == 0.0
    assert [t for t, _, _ in driver.launched] == [0.5, 1.0]


def test_slot_held_until_session_completes():
    env, driver, ctl = _world(slots=(1,), service_time=3.0)
    ctl.feed(TraceArrivals([0.0, 0.0], suite=[_spec("p")], prefix="b"))
    env.run(until=20.0)
    # Second session had to wait for the first's slot: 3s service time.
    assert [t for t, _, _ in driver.launched] == [0.0, 3.0]
    assert ctl.telemetry.wait.percentile(100) == pytest.approx(3.0)


def test_reject_on_full_queue_is_backpressure():
    env, driver, ctl = _world(slots=(1,), service_time=50.0, queue_limit=2)
    offered = {}

    def scenario():
        # First occupies the slot; two queue; the fourth bounces.
        for i in range(4):
            offered[i] = ctl.offer(_spec(f"r{i}"))
        yield env.timeout(0.0)

    env.process(scenario())
    env.run(until=1.0)
    assert offered[0] is True and offered[1] is True and offered[2] is True
    assert offered[3] is False
    q = ctl.telemetry
    assert q.offered == 4 and q.rejected == 1
    assert q.depth_max == 2  # the bound held


def test_abandonment_after_patience():
    impatient = SloClass("impatient", priority=0, wait_slo=1.0, patience=2.0)
    env, driver, ctl = _world(
        slots=(1,), service_time=10.0, classifier=lambda s: impatient
    )
    ctl.feed(TraceArrivals([0.0, 0.5], suite=[_spec("p")], prefix="c"))
    env.run(until=20.0)
    q = ctl.telemetry
    # First admitted instantly; second gave up at 0.5 + 2.0 = 2.5.
    assert q.admitted == 1 and q.abandoned == 1
    assert len(driver.launched) == 1
    assert q.by_class["impatient"]["abandoned"] == 1


def test_priority_class_jumps_the_queue():
    urgent = SloClass("urgent", priority=0, wait_slo=60.0, patience=100.0)
    lazy = SloClass("lazy", priority=5, wait_slo=60.0, patience=100.0)
    classes = {"u": urgent, "l": lazy}
    env, driver, ctl = _world(
        slots=(1,), service_time=2.0,
        classifier=lambda s: classes[s.name[0]],
    )

    def scenario():
        ctl.offer(_spec("l-first"))   # takes the slot at t=0
        ctl.offer(_spec("l-second"))  # queues
        yield env.timeout(0.5)
        ctl.offer(_spec("u-late"))    # queues later but outranks it

    env.process(scenario())
    env.run(until=30.0)
    order = [name for _, name, _ in driver.launched]
    assert order == ["l-first", "u-late", "l-second"]


def test_slo_met_flag_follows_wait():
    tight = SloClass("tight", priority=0, wait_slo=1.0, patience=100.0)
    env, driver, ctl = _world(
        slots=(1,), service_time=4.0, classifier=lambda s: tight
    )
    ctl.feed(TraceArrivals([0.0, 0.5], suite=[_spec("p")], prefix="d"))
    env.run(until=30.0)
    met = dict((name, ok) for name, _, ok in ctl.admissions)
    assert met["d00000-lb3d"] is True    # admitted at once
    assert met["d00001-lb3d"] is False   # waited 3.5s against a 1s SLO
    assert ctl.telemetry.slo_met == 1


def test_queue_limit_validation():
    env = Environment()
    driver = FakeDriver(env)
    ledger = CapacityLedger()
    ledger.register_site(0, 1)
    with pytest.raises(LoadError):
        AdmissionController(driver, ledger=ledger, queue_limit=0)


def test_requeue_bypasses_the_bound_and_jumps_the_queue():
    env, driver, ctl = _world(slots=(1,), service_time=5.0, queue_limit=2)

    def scenario():
        ctl.offer(_spec("first"))      # takes the slot
        ctl.offer(_spec("waiting-a"))  # fills the bound...
        ctl.offer(_spec("waiting-b"))
        assert ctl.offer(_spec("bounced")) is False  # ...which sheds
        # Recovery requeue: enters anyway, ahead of the waiters.
        ctl.requeue(_spec("displaced"))
        yield env.timeout(0.0)

    env.process(scenario())
    env.run(until=30.0)
    order = [name for _, name, _ in driver.launched]
    assert order[0] == "first"
    assert order[1] == "displaced"  # RETRY priority outranks every class
    q = ctl.telemetry
    assert q.requeued == 1
    assert q.offered == 5  # 4 offers + 1 requeue: conservation holds
    assert q.offered == q.admitted + q.rejected + q.abandoned
    assert q.by_class["retry"]["requeued"] == 1
    assert q.by_class["retry"]["admitted"] == 1


def test_requeued_session_still_abandons_after_retry_patience():
    from repro.load.slo import RETRY

    env, driver, ctl = _world(slots=(1,), service_time=500.0)
    ctl.offer(_spec("hog"))        # occupies the only slot forever
    ctl.requeue(_spec("displaced"))
    env.run(until=200.0)
    q = ctl.telemetry
    # The requeue is patient (120 s) but not infinitely so: with no
    # capacity coming back it abandons rather than leaking.
    assert q.abandoned == 1
    assert q.by_class["retry"]["abandoned"] == 1
    assert len(driver.launched) == 1
    assert RETRY.patience == 120.0


def test_queue_observers_mirror_every_transition():
    env, driver, ctl = _world(slots=(1,), service_time=3.0, queue_limit=1)
    seen = []
    ctl.observers.append(lambda kind, **kw: seen.append(kind))

    def scenario():
        ctl.offer(_spec("a"))   # offer + acquire + admit
        ctl.offer(_spec("b"))   # offer (queues)
        ctl.offer(_spec("c"))   # offer + reject (bound=1)
        yield env.timeout(0.0)

    env.process(scenario())
    env.run(until=30.0)
    assert seen.count("offer") == 3
    assert seen.count("reject") == 1
    assert seen.count("admit") == seen.count("acquire") == 2
    assert seen.count("release") == 2


def test_depth_integral_tracks_queueing():
    env, driver, ctl = _world(slots=(1,), service_time=4.0, queue_limit=8)
    ctl.feed(TraceArrivals([0.0, 0.0, 0.0], suite=[_spec("p")], prefix="e"))
    env.run(until=30.0)
    q = ctl.telemetry
    q.finalize(env.now)
    assert q.depth_max == 2
    assert q.depth_mean > 0.0


# -- retry_after bound (PR 8 regression) -------------------------------------
#
# The old bound clamped each entry's remaining patience at zero, so a
# queue full of entries whose patience had elapsed (but whose
# abandonment sweep hadn't stepped yet) advertised Retry-After 0 — every
# rejected caller invited straight back at a still-full queue.


def test_retry_after_empty_queue_is_zero():
    env, driver, ctl = _world(slots=(1,))
    assert ctl.retry_after() == 0.0


def test_retry_after_is_min_remaining_patience():
    from repro.load.slo import BATCH, INTERACTIVE

    env, driver, ctl = _world(
        slots=(1,), service_time=100.0, queue_limit=4,
        classifier=lambda spec: BATCH if spec.name.startswith("b") else INTERACTIVE,
    )
    ctl.offer(_spec("b-hold"))      # admitted to the only slot
    ctl.offer(_spec("b-queued"))    # BATCH, patience 40
    ctl.offer(_spec("i-queued"))    # INTERACTIVE, patience 8
    assert ctl.retry_after() == 8.0
    env.now = 5.0
    assert ctl.retry_after() == 3.0


def test_retry_after_skips_expired_entries():
    from repro.load.slo import BATCH, INTERACTIVE

    env, driver, ctl = _world(
        slots=(1,), service_time=100.0, queue_limit=4,
        classifier=lambda spec: BATCH if spec.name.startswith("b") else INTERACTIVE,
    )
    ctl.offer(_spec("b-hold"))
    ctl.offer(_spec("i-queued"))    # patience 8
    ctl.offer(_spec("b-queued"))    # patience 40
    # Past the interactive entry's patience, before its sweep has run:
    # the bound must fall through to the still-fresh batch entry.
    env.now = 10.0
    assert ctl.retry_after() == 30.0


def test_retry_after_all_expired_falls_back_to_patience_floor():
    from repro.load.slo import BATCH, INTERACTIVE

    env, driver, ctl = _world(
        slots=(1,), service_time=100.0, queue_limit=4,
        classifier=lambda spec: BATCH if spec.name.startswith("b") else INTERACTIVE,
    )
    ctl.offer(_spec("b-hold"))
    ctl.offer(_spec("i-queued"))    # patience 8
    ctl.offer(_spec("b-queued"))    # patience 40
    env.now = 50.0  # everyone's patience elapsed, no sweep has stepped
    bound = ctl.retry_after()
    assert bound == 8.0  # the shortest patience, never 0
    assert bound > 0.0
