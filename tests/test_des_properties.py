"""Property-based tests on the DES kernel invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import TIMED_OUT, Environment, Store


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
def test_property_events_fire_in_time_order(delays):
    """Whatever the creation order, callbacks observe monotonic time and
    the final clock equals the max delay."""
    env = Environment()
    observed = []
    for d in delays:
        ev = env.timeout(d, value=d)
        ev.callbacks.append(lambda e: observed.append((env.now, e.value)))
    env.run()
    times = [t for t, _ in observed]
    assert times == sorted(times)
    assert env.now == pytest.approx(max(delays))
    # every event fired exactly when scheduled
    for t, d in observed:
        assert t == pytest.approx(d)


@settings(max_examples=40, deadline=None)
@given(event_at=st.floats(0.0, 10.0), deadline=st.floats(0.0, 10.0))
def test_property_first_resolves_at_the_earlier_of_event_and_deadline(event_at, deadline):
    env = Environment()

    def proc():
        out = yield env.first(env.timeout(event_at, value="event"), deadline)
        return out, env.now

    p = env.process(proc())
    out, when = env.run(until=p)
    # on a tie the event wins: its timer was queued before the deadline
    assert out == ("event" if event_at <= deadline else TIMED_OUT)
    assert when == pytest.approx(min(event_at, deadline))
    env.run()
    assert env.events_processed == 3 + (event_at > deadline)


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
def test_property_allof_resolves_at_maximum(delays):
    env = Environment()

    def proc():
        events = [env.timeout(d, value=d) for d in delays]
        yield env.all_of(events)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == pytest.approx(max(delays))


@settings(max_examples=40, deadline=None)
@given(
    items=st.lists(st.integers(), min_size=1, max_size=40),
    n_consumers=st.integers(1, 4),
)
def test_property_store_preserves_fifo_and_loses_nothing(items, n_consumers):
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for i, item in enumerate(items):
            yield env.timeout(0.001)
            yield store.put(item)

    def consumer():
        while True:
            item = yield store.get()
            received.append(item)
            if len(received) == len(items):
                return

    env.process(producer())
    for _ in range(n_consumers):
        env.process(consumer())
    env.run(until=60.0)
    # Nothing lost, nothing duplicated, order preserved (producer paces
    # items one tick apart, so interleaving cannot reorder them).
    assert received == items


@settings(max_examples=30, deadline=None)
@given(
    interrupt_at=st.floats(0.01, 5.0),
    sleep_for=st.floats(0.02, 10.0),
)
def test_property_interrupt_beats_or_loses_to_timeout(interrupt_at, sleep_for):
    """A sleeper interrupted before its timeout wakes at the interrupt
    time; otherwise it completes on schedule."""
    from repro.des import Interrupt

    env = Environment()
    outcome = {}

    def sleeper():
        try:
            yield env.timeout(sleep_for)
            outcome["how"] = ("slept", env.now)
        except Interrupt:
            outcome["how"] = ("interrupted", env.now)

    def interrupter(target):
        yield env.timeout(interrupt_at)
        if target.is_alive:
            target.interrupt()

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    how, when = outcome["how"]
    if interrupt_at < sleep_for:
        assert how == "interrupted"
        assert when == pytest.approx(interrupt_at)
    else:
        assert how == "slept"
        assert when == pytest.approx(sleep_for)
