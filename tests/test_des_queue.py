"""The event queue's contract, pinned at the ``Environment`` level.

Events fire in strictly ascending ``(time, priority, seq)`` order — the
tie-break every golden-pinned determinism test in the repo leans on —
and the whole kernel (timeouts, conditions, interrupts, recycling) is
pinned by the hashed traces of three random worlds, recorded on the
parent of the commit that merged the scheduler backends and the step
loops into one heap and one ``step()``.
"""

import hashlib
import random

import pytest

from repro.des import Environment, Interrupt
from repro.errors import SimulationError

INF = float("inf")


def _watch(event, fired, tag):
    event.callbacks.append(lambda ev: fired.append((ev.env.now, tag)))


def test_same_instant_events_fire_by_priority_then_schedule_order():
    env = Environment()
    fired = []

    def sleeper():
        fired.append((env.now, "sleeper-init"))
        try:
            yield env.timeout(100.0)
        except Interrupt as intr:
            fired.append((env.now, intr.cause))

    _watch(env.timeout(5.0), fired, "late")
    poker = env.timeout(0.5)
    _watch(env.timeout(0.5), fired, "b")
    _watch(env.event().succeed(), fired, "now")
    # Process initialization is URGENT: scheduled after "now", fires first.
    victim = env.process(sleeper())
    # So is an interrupt: raised while "a" fires at t=0.5, it overtakes
    # "b", which was scheduled for the same instant long before.
    poker.callbacks.append(lambda _ev: victim.interrupt("poked"))
    _watch(poker, fired, "a")
    _watch(env.timeout(0.5), fired, "c")
    env.run()
    assert fired == [
        (0.0, "sleeper-init"),
        (0.0, "now"),
        (0.5, "a"),
        (0.5, "poked"),
        (0.5, "b"),
        (0.5, "c"),
        (5.0, "late"),
    ]


def test_far_horizon_and_infinite_delays_order_correctly():
    env = Environment()
    fired = []
    for delay in (INF, 1e19, 2.0, 1e9, INF):
        _watch(env.timeout(delay), fired, delay)
    assert env.peek() == 2.0
    env.run(until=3.0)
    assert fired == [(2.0, 2.0)] and env.peek() == 1e9
    env.run()
    assert fired[1:] == [(1e9, 1e9), (1e19, 1e19), (INF, INF), (INF, INF)]
    assert env.now == INF


def test_pending_and_peek_track_the_schedule():
    env = Environment()
    assert env.pending == 0
    assert env.peek() == INF
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.pending == 2
    assert env.peek() == 1.0
    env.step()
    assert (env.now, env.pending, env.peek()) == (1.0, 1, 3.0)
    env.run()
    assert env.pending == 0


def test_step_on_an_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError, match="empty schedule"):
        env.step()
    env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError, match="empty schedule"):
        env.step()


# -- whole-kernel traces -------------------------------------------------------


def _any_of(env, events):
    """The kernel's old ``AnyOf``, as these worlds used it: an event that
    succeeds, through the queue, once the first of ``events`` is processed."""
    race = env.event()

    def check(_ev):
        if not race.triggered:
            race.succeed()

    for ev in events:
        ev.callbacks.append(check)
    return race


def _random_world(seed, n_procs, n_steps):
    """A random world of timeouts, interrupts and conditions; returns
    the exact (time, pid, step, tag) trace of every resume."""
    env = Environment()
    trace = []
    procs = []

    def worker(i, rng_seed):
        rng = random.Random(rng_seed)
        for k in range(n_steps):
            roll = rng.random()
            try:
                if roll < 0.55:
                    yield env.timeout(rng.random() * 8.0)
                    tag = "t"
                elif roll < 0.7:
                    yield _any_of(env, [env.timeout(rng.random() * 4.0) for _ in range(2)])
                    tag = "any"
                elif roll < 0.85:
                    yield env.all_of(
                        [env.timeout(rng.random() * 4.0) for _ in range(2)]
                    )
                    tag = "all"
                else:
                    # Only poke lower-index workers: they initialized
                    # before this one, so the Interrupt always lands on
                    # a started generator (inside its try block).
                    if i and (victim := procs[rng.randrange(i)]).is_alive:
                        victim.interrupt(("poke", i, k))
                    yield env.timeout(rng.random() * 2.0)
                    tag = "poke"
            except Interrupt as intr:
                tag = ("intr", intr.cause)
            trace.append((env.now, i, k, tag))
        # Park instead of returning: an interrupt in flight at the
        # instant a process finishes is a kernel error, and this test is
        # about the order of events, not that edge.
        while True:
            try:
                yield env.timeout(1e9)
            except Interrupt as intr:
                trace.append((env.now, i, "parked", intr.cause))

    master = random.Random(seed)
    for i in range(n_procs):
        procs.append(env.process(worker(i, master.randrange(2**30))))
    env.run(until=1000.0)
    return trace, env.now, env.events_processed


#: sha256 of ``repr(_random_world(...))``, recorded on the two-backend,
#: three-loop kernel (where the heap and the calendar queue agreed)
PINNED_WORLDS = {
    (7, 6, 10): "0c11a22774236b752ffbed447dec13c3066cb669a52116db8d393850906f9a6a",
    (99, 20, 25): "cbdf11dd23d3bad186383c32f4cdbf976e23249b2d09512c5bfcd5deb0ab6c88",
    (123456, 12, 15): "2e25966bc4e7fa25aa023d3ac9bf576fe38fa44612927af06587e19ca044d5d6",
}


@pytest.mark.parametrize("world", sorted(PINNED_WORLDS), ids=lambda w: "-".join(map(str, w)))
def test_random_world_trace_matches_the_pinned_kernel(world):
    result = _random_world(*world)
    trace, now, events = result
    assert now == 1000.0 and events > len(trace) > 0
    assert any(tag[0] == "intr" for _t, _i, _k, tag in trace if isinstance(tag, tuple))
    assert hashlib.sha256(repr(result).encode()).hexdigest() == PINNED_WORLDS[world]
