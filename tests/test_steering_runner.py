"""Tests for the DES app runner (virtual-time steered main loop)."""

import pytest

from repro.des import Environment
from repro.net import SyncPipe
from repro.sims import LatticeBoltzmann3D
from repro.steering import (
    Pause,
    Resume,
    SteeredApplication,
    SteeringClient,
    Stop,
    steered_app_process,
)


def make(env, sample_interval=1):
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), g=0.5, seed=8)
    app = SteeredApplication(sim, name="lb3d", sample_interval=sample_interval)
    pipe = SyncPipe()
    app.attach_control(pipe.a)
    return app, SteeringClient(pipe.b)


def test_runner_charges_virtual_time_per_step():
    env = Environment()
    app, _ = make(env)
    proc = env.process(steered_app_process(env, app, compute_time=0.5,
                                           max_steps=10))
    steps = env.run(until=proc)
    assert steps == 10
    assert env.now == pytest.approx(5.0)
    assert app.sim.step_count == 10


def test_runner_callable_cost_model():
    env = Environment()
    app, _ = make(env)
    costs = []

    def cost(sim):
        c = 0.1 + 0.01 * sim.step_count
        costs.append(c)
        return c

    proc = env.process(steered_app_process(env, app, compute_time=cost,
                                           max_steps=5))
    env.run(until=proc)
    assert env.now == pytest.approx(sum(costs))


def test_runner_pause_resume_under_virtual_time():
    env = Environment()
    app, client = make(env)
    env.process(steered_app_process(env, app, compute_time=0.1))

    def steerer():
        yield env.timeout(0.55)
        client._send(Pause())
        yield env.timeout(2.0)
        paused_steps = app.sim.step_count
        client._send(Resume())
        yield env.timeout(1.0)
        client._send(Stop())
        return paused_steps

    p = env.process(steerer())
    env.run(until=20.0)
    paused_steps = p.value
    # While paused (2.0s) the step count froze...
    assert paused_steps <= 7
    # ...but after resume it advanced again until the stop.
    assert app.sim.step_count > paused_steps
    assert app.stopped


def test_runner_stop_ends_loop_promptly():
    env = Environment()
    app, client = make(env)
    proc = env.process(steered_app_process(env, app, compute_time=0.1))

    def steerer():
        yield env.timeout(0.35)
        client._send(Stop())

    env.process(steerer())
    steps = env.run(until=proc)
    assert app.stopped
    assert steps <= 5


def test_runner_emits_samples_at_interval():
    env = Environment()
    sim = LatticeBoltzmann3D(shape=(6, 6, 6), seed=1)
    app = SteeredApplication(sim, name="lb3d", sample_interval=3)
    sink = SyncPipe()
    app.attach_sample_sink(sink.a)
    watcher = SteeringClient(sink.b)
    proc = env.process(steered_app_process(env, app, compute_time=0.05,
                                           max_steps=10))
    env.run(until=proc)
    watcher.drain()
    assert [s.step for s in watcher.samples] == [3, 6, 9]
