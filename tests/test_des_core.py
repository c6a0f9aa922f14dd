"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.des import TIMED_OUT, Environment, Interrupt, Mailbox, Resource, Store, Timeout
from repro.errors import SimulationError


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(5.0)
        seen.append(env.now)
        yield env.timeout(2.5)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [5.0, 7.5]
    assert env.now == 7.5


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_via_run_until():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_process_waits_on_other_process():
    env = Environment()

    def child():
        yield env.timeout(3)
        return "done"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    p = env.process(parent())
    assert env.run(until=p) == (3.0, "done")


def test_uncaught_process_exception_propagates():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_waiting_process_can_catch_child_failure():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(bad())
        except ValueError:
            return "caught"
        return "missed"

    p = env.process(parent())
    assert env.run(until=p) == "caught"


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 17

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1)

    env.process(ticker())
    env.run(until=10.5)
    assert env.now == 10.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_nan_never_reaches_the_heap():
    # A NaN key compares false against everything: the heap would accept
    # it, lose its invariant, and fail later at an unrelated event.
    nan = float("nan")
    env = Environment()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        env.timeout(delay).callbacks.append(lambda ev: fired.append(ev.env.now))
    for schedule in (
        lambda: env.timeout(nan),
        lambda: env.timeout_until(nan),
        lambda: Timeout(env, nan),
        lambda: env._enqueue(env.event(), 1, nan),
        lambda: env.run(until=nan),
        lambda: Environment(initial_time=nan),
    ):
        with pytest.raises(SimulationError):
            schedule()
    assert env.pending == 3
    env.run()
    assert fired == [1.0, 2.0, 3.0]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(target):
        yield env.timeout(4)
        target.interrupt("wake up")

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    assert log == [(4.0, "wake up")]


def test_first_resolves_with_whichever_comes_first():
    env = Environment()

    def racer(event_at, deadline):
        out = yield env.first(env.timeout(event_at, value="event"), deadline)
        return out, env.now

    early = env.process(racer(1, 5))
    late = env.process(racer(5, 1))
    env.run()
    assert early.value == ("event", 1.0)
    assert late.value == (TIMED_OUT, 1.0)


def test_a_beaten_deadline_is_popped_but_runs_nothing_and_is_not_counted():
    env = Environment()
    race = env.first(env.timeout(1, value="x"), 9)
    env.run(until=1)
    # the race resolved in the event's own step: no event of its own
    assert (race.callbacks is None) and race.value == "x"
    assert (env.events_processed, env.pending) == (1, 1)
    env.run()
    # the cancelled deadline still moved the clock to its instant
    assert (env.now, env.events_processed, env.pending) == (9.0, 1, 0)


def test_first_over_a_processed_event_is_decided_at_once():
    env = Environment()
    done = env.timeout(0, value="v")
    env.run()
    race = env.first(done, 5)
    assert (race.callbacks is None) and race.value == "v"
    assert env.pending == 0  # no deadline was scheduled


def test_allof_waits_for_everything():
    env = Environment()

    def proc():
        evs = [env.timeout(d, value=d) for d in (3, 1, 2)]
        results = yield env.all_of(evs)
        return (env.now, sorted(results.values()))

    p = env.process(proc())
    assert env.run(until=p) == (3.0, [1, 2, 3])


def test_store_fifo_order():
    env = Environment()
    out = []

    def producer(store):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(store):
        for _ in range(3):
            item = yield store.get()
            out.append((env.now, item))

    store = Store(env)
    env.process(producer(store))
    env.process(consumer(store))
    env.run()
    assert [i for _, i in out] == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    out = []

    def consumer(store):
        item = yield store.get()
        out.append((env.now, item))

    def producer(store):
        yield env.timeout(7)
        yield store.put("x")

    store = Store(env)
    env.process(consumer(store))
    env.process(producer(store))
    env.run()
    assert out == [(7.0, "x")]


def test_store_try_get():
    env = Environment()
    store = Store(env)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put("a")
    env.run()
    ok, item = store.try_get()
    assert ok and item == "a"


def test_put_nowait_serves_parked_getters_in_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item, env.now))

    def sender():
        yield env.timeout(1.0)
        for item in "abc":
            store.put_nowait(item)

    for tag in (1, 2):
        env.process(getter(tag))
    env.process(sender())
    env.run()
    assert got == [(1, "a", 1.0), (2, "b", 1.0)]
    assert list(store.items) == ["c"]


def test_put_nowait_schedules_nothing_without_a_getter():
    env = Environment()
    store = Store(env)
    store.put_nowait("x")
    assert env.pending == 0 and store.try_get() == (True, "x")


def test_put_nowait_interleaves_with_put():
    env = Environment()
    store = Store(env)
    store.put_nowait(0)
    store.put(1)
    store.put_nowait(2)
    store.put(3)
    env.run()
    assert list(store.items) == [0, 1, 2, 3]


@pytest.mark.parametrize("timeout", [None, 5.0])
def test_a_delivery_resumes_a_parked_receiver_inside_its_own_step(timeout):
    env = Environment()
    box = Mailbox(env)
    got = []

    def receiver():
        got.append((yield from box.recv(timeout)))
        yield env.event()  # stay parked: the process ends no event

    env.process(receiver())
    env.run(until=0.5)
    env.timeout(0.5, "msg").callbacks.append(box.deliver)
    before = env.events_processed
    env.step()
    # one event for the message: the receiver ran in the delivery's step
    assert got == [(True, "msg")] and env.events_processed == before + 1
    assert not box._get_waiters and len(box.items) == 0


def test_put_nowait_from_a_running_process_resumes_the_receiver_later():
    env = Environment()
    box = Mailbox(env)
    log = []

    def receiver():
        log.append((yield box.get()))
        yield env.event()

    def sender():
        yield env.timeout(1.0)
        box.put_nowait("msg")
        log.append("sent")
        yield env.event()

    env.process(receiver())
    env.process(sender())
    env.run(until=0.5)
    before = env.events_processed
    env.step()  # the sender's timeout: the receiver's get is only queued
    assert log == ["sent"] and env.events_processed == before + 1
    env.step()  # the get, at the same instant
    assert log == ["sent", "msg"] and env.events_processed == before + 2
    assert env.now == 1.0


def test_mailbox_recv_with_timeout_expires():
    env = Environment()
    box = Mailbox(env)

    def proc():
        ok, item = yield from box.recv(timeout=5.0)
        return (ok, item, env.now)

    p = env.process(proc())
    assert env.run(until=p) == (False, None, 5.0)
    # The withdrawn get must not steal a later item.
    box.put("late")
    env.run()
    assert len(box.items) == 1


def test_mailbox_recv_gets_item_before_timeout():
    env = Environment()
    box = Mailbox(env)

    def producer():
        yield env.timeout(2)
        yield box.put("msg")

    def proc():
        ok, item = yield from box.recv(timeout=5.0)
        return (ok, item, env.now)

    env.process(producer())
    p = env.process(proc())
    assert env.run(until=p) == (True, "msg", 2.0)


def _receiver(box, timeout):
    ok, item = yield from box.recv(timeout=timeout)
    return ok, item, box.env.now


def test_mailbox_recv_takes_an_item_served_earlier_in_the_deadlines_instant():
    env = Environment()
    box = Mailbox(env)
    # queued before the receiver's deadline, so it fires first at t=2
    env.timeout(2).callbacks.append(lambda _ev: box.put_nowait("early"))
    p = env.process(_receiver(box, 2))
    env.run()
    assert p.value == (True, "early", 2.0)
    assert len(box.items) == 0


def test_mailbox_recv_leaves_an_item_delivered_after_its_deadline_fired():
    env = Environment()
    box = Mailbox(env)
    p = env.process(_receiver(box, 2))
    env.step()  # the receiver starts and queues its deadline for t=2
    env.timeout(2).callbacks.append(lambda _ev: box.put_nowait("late"))
    env.run()
    # same instant, but the deadline had decided: the item waits for the
    # next receive instead of going to a receiver that already timed out
    assert p.value == (False, None, 2.0)
    assert list(box.items) == ["late"]


def test_an_interrupted_recv_does_not_swallow_the_next_item():
    env = Environment()
    box = Mailbox(env)

    def a():
        try:
            yield from box.recv(timeout=10)
        except Interrupt:
            return "interrupted"

    def b():
        yield env.timeout(3)
        return (yield from _receiver(box, 5))

    pa = env.process(a())
    pb = env.process(b())
    env.timeout(1).callbacks.append(lambda _ev: pa.interrupt())
    env.timeout(2).callbacks.append(lambda _ev: box.put_nowait("msg"))
    env.run()
    assert pa.value == "interrupted"
    assert pb.value == (True, "msg", 3.0)
    # a's deadline at t=10 was cancelled with its get: popped, not run
    assert env.now == 10.0 and env.pending == 0


def test_a_received_payload_is_not_kept_alive_by_its_pending_deadline():
    class Payload:
        pass

    env = Environment()
    box = Mailbox(env)
    refs = []

    def receiver():
        ok, item = yield from box.recv(timeout=100)
        refs.append(weakref.ref(item))

    box.put_nowait(Payload())
    env.process(receiver())
    env.run(until=1)
    assert env.pending == 1  # the beaten deadline is still in the heap
    gc.collect()
    assert refs[0]() is None


def test_resource_mutual_exclusion():
    env = Environment()
    log = []

    def worker(name, res):
        req = res.request()
        yield req
        log.append((env.now, name, "acq"))
        yield env.timeout(5)
        req.release()

    res = Resource(env, capacity=1)
    env.process(worker("a", res))
    env.process(worker("b", res))
    env.run()
    assert log == [(0.0, "a", "acq"), (5.0, "b", "acq")]


def test_resource_capacity_two():
    env = Environment()
    acq_times = []

    def worker(res):
        req = res.request()
        yield req
        acq_times.append(env.now)
        yield env.timeout(3)
        req.release()

    res = Resource(env, capacity=2)
    for _ in range(4):
        env.process(worker(res))
    env.run()
    assert acq_times == [0.0, 0.0, 3.0, 3.0]


def test_run_until_event_raises_if_schedule_drains():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=ev)


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
