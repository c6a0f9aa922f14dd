"""DES-kernel edge cases the fleet engine leans on.

A fleet run multiplies every kernel corner by hundreds of sessions:
races and conditions built over events that have already failed,
interrupts landing on processes parked inside ``first`` races and
``AllOf`` conditions, and ``run(until=event)``
against schedules that drain early.  These must behave — and keep their
failed-event accounting straight — or one crashed session would take the
whole world down.
"""

import pytest

from repro.des import AllOf, Environment, Interrupt
from repro.errors import SimulationError


class Boom(Exception):
    pass


def _failing_child(env):
    yield env.timeout(1.0)
    raise Boom("child died")


def test_first_over_an_already_failed_event_fails_at_once():
    env = Environment()
    log = {}

    def waiter():
        child = env.process(_failing_child(env))
        try:
            yield child
        except Boom:
            log["caught_direct"] = env.now
        # The child is now processed *and* failed; a race built over it
        # must immediately fail rather than hang or double-raise.
        try:
            yield env.first(child, 5.0)
        except Boom:
            log["caught_race"] = env.now

    env.process(waiter())
    env.run()
    assert log["caught_direct"] == 1.0
    assert log["caught_race"] == 1.0  # immediate, not at the timeout


def test_allof_over_already_failed_subevent_fails_condition():
    env = Environment()
    log = {}

    def waiter():
        child = env.process(_failing_child(env))
        try:
            yield child
        except Boom:
            pass
        ok_timer = env.timeout(2.0)
        try:
            yield AllOf(env, [ok_timer, child])
        except Boom:
            log["caught"] = env.now

    env.process(waiter())
    env.run()
    assert log["caught"] == 1.0


def test_first_awaiting_an_event_that_fails_resumes_with_the_failure():
    env = Environment()
    log = {}

    def waiter():
        try:
            yield env.first(env.process(_failing_child(env)), 5.0)
        except Boom:
            log["caught"] = env.now

    env.process(waiter())
    env.run()
    assert log["caught"] == 1.0
    # two starts, the child's timer, its failure and the waiter's end;
    # the cancelled deadline at t=5 moved the clock but did not count
    assert env.now == 5.0 and env.events_processed == 5


def test_condition_failure_without_waiter_propagates_from_run():
    # A failed event must not be silently swallowed just because it was
    # raced by a ``first`` nobody ended up yielding on.
    env = Environment()

    def spawner():
        child = env.process(_failing_child(env))
        env.first(child, 10.0)
        yield env.timeout(0.1)
        return "spawned"

    env.process(spawner())
    with pytest.raises(Boom):
        env.run()


def test_interrupt_of_process_parked_on_condition():
    env = Environment()
    log = {}

    def parked():
        try:
            yield AllOf(env, [env.timeout(10.0), env.timeout(20.0)])
            log["outcome"] = "completed"
        except Interrupt as intr:
            log["outcome"] = ("interrupted", intr.cause, env.now)
            # The process keeps living after the interrupt.
            yield env.timeout(1.0)
            log["resumed_at"] = env.now
        return "done"

    def interrupter(victim):
        yield env.timeout(3.0)
        victim.interrupt(cause="rebalance")

    victim = env.process(parked())
    env.process(interrupter(victim))
    env.run()
    assert log["outcome"] == ("interrupted", "rebalance", 3.0)
    assert log["resumed_at"] == 4.0
    # The abandoned condition's timers still fire without resuming the
    # victim or corrupting the schedule (the world keeps running).
    assert victim.value == "done"
    assert env.now == 20.0


def test_interrupt_of_process_parked_on_first_race():
    # The VISIT timeout race: steer-vs-timeout, then the session is torn
    # down by the fleet driver mid-race.
    env = Environment()
    log = {}

    def racer():
        reply = env.event()
        try:
            yield env.first(reply, 30.0)
            log["outcome"] = "raced"
        except Interrupt:
            log["outcome"] = "torn down"

    victim = env.process(racer())

    def teardown():
        yield env.timeout(0.5)
        victim.interrupt()

    env.process(teardown())
    env.run()
    assert log["outcome"] == "torn down"


def test_run_until_event_when_schedule_drains_mid_wait():
    env = Environment()
    never = env.event()  # nobody will ever trigger this

    def background():
        yield env.timeout(1.0)

    env.process(background())
    with pytest.raises(SimulationError):
        env.run(until=never)
    # The drained run still advanced to the last processed event.
    assert env.now == 1.0


def test_run_until_failed_event_raises_and_defuses():
    env = Environment()
    child = None

    def world():
        yield env.timeout(0.5)

    def spawn():
        nonlocal child
        child = env.process(_failing_child(env))
        yield env.timeout(0.1)

    env.process(world())
    env.process(spawn())
    env.run(until=0.2)
    with pytest.raises(Boom):
        env.run(until=child)
    # run() took responsibility: the failure is defused, so continuing
    # the world afterwards must not re-raise it.
    assert child.defused
    env.run()
