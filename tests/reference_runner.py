"""Reference runner: the eager ``steered_app_process`` that ``src/`` ran
before steps became owed (PR 23), kept verbatim as the test-side oracle.

The eager loop steps the simulation at every compute tick; the lazy loop
(``repro.steering.runner``) records the step as owed and lets the next
reader of ``app.sim`` run the debt in one burst.  That is admissible only
because every reader sees the **same simulation**: ``tests/test_owed_
steps_equivalence.py`` drives both loops with one script and compares
every reply, sample and checkpoint byte for byte.  This loop never calls
``owe_step``, so under it ``app.sim`` is always settled and the property
is a plain attribute read.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.steering.api import SteeredApplication


def eager_app_process(
    env,
    app: SteeredApplication,
    compute_time: Union[float, Callable] = 0.01,
    max_steps: Optional[int] = None,
    idle_poll: float = 0.05,
):
    steps = 0
    while not app.stopped and (max_steps is None or steps < max_steps):
        app.process_control()
        if app.stopped:
            break
        if app.paused:
            yield env.timeout(idle_poll)
            continue
        cost = compute_time(app.sim) if callable(compute_time) else compute_time
        yield env.timeout(cost)
        app.sim.step()
        if app.sim.step_count % app.sample_interval == 0:
            app.emit_sample()
        steps += 1
    return steps


def run_steps(app: SteeredApplication, max_steps: int) -> int:
    """The synchronous harness loop: step until stopped or ``max_steps``
    simulation steps advanced.  A paused application with nothing to do
    returns; the caller decides when to poll again."""
    advanced = 0
    while advanced < max_steps:
        before = app.sim.step_count
        if not app.step_once():
            break
        if app.sim.step_count > before:
            advanced += 1
        elif app.paused:
            break
    return advanced
