"""DES process driving a steered application with a compute-cost model.

The synchronous :meth:`SteeredApplication.run` is fine for unit tests;
distributed scenarios need the simulation to *cost virtual time* so that
steering latency, sample latency and feedback loops are measurable.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.steering.api import SteeredApplication

#: seconds between the control polls of a paused application
IDLE_POLL = 0.05


def steered_app_process(
    env,
    app: SteeredApplication,
    compute_time: Union[float, Callable] = 0.01,
    max_steps: Optional[int] = None,
):
    """Generator: the instrumented main loop under virtual time.

    ``compute_time`` is seconds of virtual compute per simulation step,
    or a callable ``f(sim) -> seconds`` for size-dependent cost models.
    A paused application keeps polling its control links every
    :data:`IDLE_POLL` seconds — that is how it hears the Resume.

    A compute tick costs virtual time; the numerics cost none.  So the
    loop does not step the simulation at each tick: it records the step
    as *owed* (:meth:`SteeredApplication.owe_step`) and the next reader
    of ``app.sim`` — a due sample, a steer, a status request, a callable
    ``compute_time`` — runs the owed steps in one hot burst.  Every step
    the eager loop ran is still run, in the same order relative to every
    read, and the loop settles once when it ends.
    """
    steps = 0
    while not app.stopped and (max_steps is None or steps < max_steps):
        app.process_control()
        if app.stopped:
            break
        if app.paused:
            yield env.timeout(IDLE_POLL)
            continue
        cost = compute_time(app.sim) if callable(compute_time) else compute_time
        yield env.timeout(cost)
        if app.owe_step():
            app.emit_sample()
        steps += 1
    app.sim  # settle: a process whose loop has ended owes nothing
    return steps
