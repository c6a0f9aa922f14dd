"""PacedRunner: wall-clock pacing, turbo, catch-up accounting, drain."""

import asyncio

import pytest

from repro.des.core import Environment
from repro.errors import LiveError
from repro.live.pacing import PacedRunner


def _ticker(env, period, count, hits):
    def gen():
        for _ in range(count):
            yield env.timeout(period)
            hits.append(env.now)

    return gen()


def test_constructor_validation():
    env = Environment()
    with pytest.raises(LiveError):
        PacedRunner(env, rate=0.0)
    with pytest.raises(LiveError):
        PacedRunner(env, rate=float("nan"))
    with pytest.raises(LiveError):
        PacedRunner(env, rate=-1.0)
    with pytest.raises(LiveError):
        PacedRunner(env, max_tick=0.0)
    with pytest.raises(LiveError):
        PacedRunner(env, batch=0)


def test_turbo_runs_to_the_deadline():
    env = Environment()
    hits: list = []
    env.process(_ticker(env, 1.0, 5, hits))
    runner = PacedRunner(env, rate=None)
    asyncio.run(runner.run(until=3.5))
    assert hits == [1.0, 2.0, 3.0]
    assert env.now == 3.5
    assert runner.events >= 3


def test_paced_fast_forward_matches_batch_semantics():
    env = Environment()
    hits: list = []
    env.process(_ticker(env, 1.0, 8, hits))
    runner = PacedRunner(env, rate=500.0, max_tick=0.01)
    asyncio.run(runner.run(until=8.0))
    assert hits == [float(k) for k in range(1, 9)]
    assert env.now == 8.0


def test_catchup_accounting_with_tiny_batches():
    env = Environment()
    hits: list = []
    # 40 events all due within the first paced tick, but batch=4 means a
    # full batch still leaves due work behind: catch-up pressure.
    for _ in range(10):
        env.process(_ticker(env, 1e-6, 4, hits))
    runner = PacedRunner(env, rate=1000.0, max_tick=0.01, batch=4)
    asyncio.run(runner.run(until=0.001))
    assert len(hits) == 40
    assert runner.catchups >= 1
    assert runner.stats()["events"] >= 40


def test_injected_work_wakes_an_idle_runner():
    env = Environment()
    hits: list = []
    runner = PacedRunner(env, rate=1000.0, max_tick=5.0)

    async def go():
        task = asyncio.create_task(runner.run())
        await asyncio.sleep(0.02)  # runner parks (empty heap, long tick)
        env.process(_ticker(env, 0.001, 3, hits))  # on_schedule -> kick
        await asyncio.sleep(0.1)
        runner.stop()
        await task

    asyncio.run(go())
    # Without the kick the 5s max_tick would far outlast the test sleep.
    assert len(hits) == 3


def test_run_is_not_reentrant():
    env = Environment()
    runner = PacedRunner(env, rate=None)

    async def go():
        task = asyncio.create_task(runner.run())
        await asyncio.sleep(0)
        with pytest.raises(LiveError):
            await runner.run()
        runner.stop()
        await task

    asyncio.run(go())


def test_finish_drains_within_grace():
    env = Environment()
    hits: list = []
    env.process(_ticker(env, 1.0, 4, hits))
    runner = PacedRunner(env, rate=None)

    async def go():
        task = asyncio.create_task(runner.run(until=1.5))
        await task
        return await runner.finish(grace=10.0)

    drain = asyncio.run(go())
    assert hits == [1.0, 2.0, 3.0, 4.0]
    assert drain["drained"] is True
    assert drain["events"] >= 3


def test_finish_respects_the_grace_budget():
    env = Environment()
    hits: list = []
    env.process(_ticker(env, 10.0, 5, hits))
    runner = PacedRunner(env, rate=None)

    async def go():
        return await runner.finish(grace=25.0)

    drain = asyncio.run(go())
    assert hits == [10.0, 20.0]  # 30.0 is beyond now + grace
    assert drain["drained"] is False
    with pytest.raises(LiveError):
        asyncio.run(runner.finish(grace=-1.0))


def test_finish_refuses_while_running():
    env = Environment()
    runner = PacedRunner(env, rate=None)

    async def go():
        task = asyncio.create_task(runner.run())
        await asyncio.sleep(0)
        with pytest.raises(LiveError):
            await runner.finish()
        runner.stop()
        await task

    asyncio.run(go())


def test_on_schedule_hook_is_restored_after_run():
    env = Environment()
    sentinel = []
    env.on_schedule = lambda: sentinel.append(1)
    runner = PacedRunner(env, rate=None)
    asyncio.run(runner.run(until=1.0))
    assert env.on_schedule is not None
    env.process(_ticker(env, 1.0, 1, []))
    assert sentinel  # the previous hook fires again
