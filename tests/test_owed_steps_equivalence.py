"""Owed steps, settled on read, show every reader the eager loop's sim.

``steered_app_process`` no longer steps at each compute tick: it records
the step as owed and ``SteeredApplication.sim`` runs the debt when it is
next read.  The oracle is the parent's eager loop, kept verbatim in
``reference_runner``; equality here is bytes — of every reply, every
sample array and every checkpoint — never ``allclose``.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_runner import eager_app_process
from repro.des import Environment
from repro.errors import ReproError, SteeringError
from repro.fleet.spec import SIM_KINDS, ScenarioSpec, make_sim
from repro.net import SyncPipe
from repro.sims.base import Simulation
from repro.steering import SteeredApplication, steered_app_process
from repro.steering.control import (
    GetStatus,
    Pause,
    Resume,
    SetParam,
    Stop,
)
from repro.viz import Renderer

MAX_STEPS = 24


def freeze(obj):
    """A nested value as something ``==`` compares bit for bit."""
    if isinstance(obj, (np.ndarray, np.generic)):
        arr = np.asarray(obj)
        return ("nd", arr.dtype.str, arr.shape, arr.tobytes())
    if isinstance(obj, float):
        return ("f", struct.pack("<d", obj))
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, freeze(vars(obj)))
    if isinstance(obj, dict):
        return tuple((k, freeze(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(v) for v in obj)
    return obj


def state_of(sim):
    """Everything a reader can learn of a simulation, frozen."""
    try:
        full = sim.checkpoint()
    except SteeringError:  # PEPC has no checkpoint surface
        full = None
    return freeze((sim.step_count, sim.time, sim.observables(), sim.sample(), full))


def stepped_cost(sim):
    return 0.05 + 0.01 * (sim.step_count % 3)


def play(loop, kind, seed, sample_interval, compute_time, ops, cut):
    """Run one script under ``loop``; return everything observable."""
    env = Environment()
    app = SteeredApplication(
        make_sim(kind, seed=seed), name=kind, sample_interval=sample_interval
    )
    control, sink = SyncPipe(), SyncPipe()
    app.attach_control(control.a)
    app.attach_sample_sink(sink.a)
    proc = env.process(loop(env, app, compute_time=compute_time, max_steps=MAX_STEPS))

    def steerer():
        for seq, (delay, op) in enumerate(ops):
            yield env.timeout(delay)
            control.b.send(dataclasses.replace(op, seq=seq))
        control.b.send(Resume(seq=len(ops)))  # a paused loop never ends

    env.process(steerer())
    if cut > 0:
        env.run(until=cut)
    at_cut = state_of(app.sim)
    returned = env.run(until=proc)

    def drained(end):
        out = []
        while end.pending():
            out.append(freeze(end.recv()))
        return out

    return {
        "at_cut": at_cut,
        "at_end": state_of(app.sim),
        "replies": drained(control.b),
        "samples": drained(sink.b),
        "samples_emitted": app.samples_emitted,
        "commands_applied": app.commands_applied,
        "returned": returned,
        "now": env.now,
    }


def commands(kind):
    spec = ScenarioSpec(name="s", sim=kind)
    good = st.integers(0, 7).map(lambda k: SetParam(spec.steer_param, spec.steer_value(k)))
    bad = st.sampled_from(
        [
            SetParam("no-such-parameter", 1.0),
            SetParam("time", 1.0),  # monitored: read-only
            SetParam(spec.steer_param, float("nan")),
        ]
    )
    other = st.sampled_from([GetStatus(), Pause(), Resume(), Stop()])
    return st.one_of(good, bad, other, other)


@st.composite
def scripts(draw):
    kind = draw(st.sampled_from(SIM_KINDS))
    delay = st.floats(min_value=0.0, max_value=0.4, allow_nan=False)
    return {
        "kind": kind,
        "seed": draw(st.integers(0, 50)),
        "sample_interval": draw(st.integers(1, 6)),
        "compute_time": draw(st.sampled_from([0.1, stepped_cost])),
        "ops": draw(st.lists(st.tuples(delay, commands(kind)), max_size=10)),
        "cut": draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False)),
    }


@settings(max_examples=60, deadline=None)
@given(script=scripts())
def test_lazy_loop_shows_every_reader_the_eager_sim(script):
    lazy = play(steered_app_process, **script)
    eager = play(eager_app_process, **script)
    for key in eager:
        assert lazy[key] == eager[key], key


@pytest.mark.parametrize("kind", SIM_KINDS)
def test_a_burst_is_the_same_steps_as_one_at_a_time(kind):
    # No steering at all: the widest bursts the interval allows.
    script = dict(kind=kind, seed=3, sample_interval=6, compute_time=0.1, ops=[], cut=1.25)
    assert play(steered_app_process, **script) == play(eager_app_process, **script)


class Brittle(Simulation):
    """Counts steps; refuses to leave step 2 while ``broken``."""

    def __init__(self):
        super().__init__()
        self.broken = True

    def advance(self):
        if self.broken and self.step_count == 2:
            raise RuntimeError("step 3 failed")

    def sample(self):
        return {"step": self.step_count}


def test_a_step_that_raises_leaves_the_rest_of_the_debt_owed():
    env = Environment()
    sim = Brittle()
    app = SteeredApplication(sim, sample_interval=4)
    proc = env.process(steered_app_process(env, app, compute_time=0.1, max_steps=4))
    # Four ticks are paid for; the sample due after the fourth settles
    # them, and the third step raises out of the burst.
    with pytest.raises(RuntimeError, match="step 3 failed"):
        env.run(until=proc)
    assert sim.step_count == 2
    with pytest.raises(RuntimeError, match="step 3 failed"):
        app.sim  # still owed, still failing: nothing was written off
    assert sim.step_count == 2
    sim.broken = False
    assert app.sim.step_count == 4  # exactly the steps the loop paid for
    assert app.sim.step_count == 4


def test_a_finished_process_owes_nothing():
    env = Environment()
    sim = Brittle()
    sim.broken = False
    app = SteeredApplication(sim, sample_interval=4)
    proc = env.process(steered_app_process(env, app, compute_time=0.1, max_steps=10))
    assert env.run(until=proc) == 10
    # Read through a reference held outside the app: steps 9 and 10 fall
    # after the last sample, and only the loop's final settle runs them.
    assert sim.step_count == 10


def test_step_once_and_run_step_through_the_same_property():
    sim = Brittle()
    sim.broken = False
    app = SteeredApplication(sim, sample_interval=2)
    app.owe_step()
    assert app.step_once()
    assert sim.step_count == 2  # the owed step, then step_once's own
    assert app.run(3) == 3
    assert sim.step_count == 5
    assert app.samples_emitted == 2  # after steps 2 and 4


def test_renderer_checks_its_size_eagerly_and_builds_its_frame_lazily():
    for width, height in [(0, 10), (10, 0), (-1, 5)]:
        with pytest.raises(ReproError, match="dimensions must be positive"):
            Renderer(width, height)
    idle = Renderer(320, 240)
    idle.camera.orbit(0.5)  # set_view before the first frame
    assert "fb" not in vars(idle)
    for first_use in (
        lambda r: r.fb,
        lambda r: r.clear(),
        lambda r: r.draw_points(np.zeros((1, 3))),
    ):
        renderer = Renderer(320, 240)
        assert "fb" not in vars(renderer)
        first_use(renderer)
        fb = vars(renderer)["fb"]
        assert (fb.width, fb.height) == (320, 240)
        assert renderer.fb is fb
