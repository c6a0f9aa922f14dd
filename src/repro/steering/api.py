"""Application-side steering instrumentation.

:class:`SteeredApplication` wraps any :class:`repro.sims.base.Simulation`
and gives it the RealityGrid/VISIT application surface:

* parameters are auto-registered from ``sim.steerable_parameters()`` and
  ``sim.observables()``;
* the main loop calls :meth:`step_once`, which polls attached control
  links, applies commands, advances the simulation if not paused, and
  emits samples every ``sample_interval`` steps;
* *everything is initiated by the application* — a dead or slow steering
  client can never block the simulation, which is the central VISIT design
  goal (section 3.2).
"""

from __future__ import annotations

from functools import cmp_to_key, partial
from typing import Any, Callable, Optional

from repro.errors import SteeringError
from repro.steering.control import (
    Ack,
    GetStatus,
    Pause,
    Resume,
    SampleMsg,
    SetParam,
    StatusReport,
    Stop,
)
from repro.steering.params import ParameterDef, ParameterRegistry


#: seconds between the poll rounds of a service pump (:func:`pump`)
PUMP_TICK = 0.01


def _poll_order(a: tuple, b: tuple, tick: float) -> float:
    """Which of two pollers ``(park instant, ticks to the wake, park
    ordinal)`` waking at one instant the polling loop fires first
    (negative: ``a``).

    A polling loop's wake-up is a timeout created at its previous round,
    so two loops meeting at an instant fire in the order of their
    previous rounds, and so on back: ``fl(x + tick)`` is monotone in
    ``x``, so grids that meet were never ordered the other way at any
    earlier common round.  The earliest one is the later poller's park
    instant: step the earlier-parked grid to that round (it has the
    larger tick count) and compare.  On an exact tie both polled at one
    instant, the later one behind a ``timeout(0.0)`` of that instant —
    i.e. in park order.
    """
    (ta, ka, oa), (tb, kb, ob) = a, b
    for _ in range(ka - kb):
        ta = ta + tick
    for _ in range(kb - ka):
        tb = tb + tick
    return (ta - tb) or (oa - ob)


class _Parking:
    """One environment's parked poll loops (``Environment.parking``)."""

    __slots__ = ("parks", "wakes")

    def __init__(self) -> None:
        #: park ordinals handed out so far
        self.parks = 0
        #: (wake instant, tick) -> (the instant's one timeout, its
        #: callback list ``[_release, resume, resume, ...]``, one
        #: ``_poll_order`` record per resume), until the timeout fires
        self.wakes: dict[tuple[float, float], tuple] = {}

    def wake(self, env, t: float, tick: float, record: tuple):
        """The shared timeout at ``t`` for a poller to yield."""
        key = (t, tick)
        entry = self.wakes.get(key)
        if entry is None:
            event = env.timeout_until(t)
            event.callbacks.append(partial(self._release, key))
            entry = self.wakes[key] = (event, event.callbacks, [])
        entry[2].append(record)
        return entry[0]

    def _release(self, key: tuple, _event) -> None:
        # Pollers joined in arrival order — the kernel appended each one's
        # resume as it yielded the timeout.  This is the timeout's first
        # callback: put the rest into polling order before the kernel,
        # which is walking this very list, reaches them.
        _event, callbacks, records = self.wakes.pop(key)
        if len(records) > 1:
            tick = key[1]
            pairs = sorted(
                zip(records, callbacks[1:]),
                key=cmp_to_key(lambda p, q: _poll_order(p[0], q[0], tick)),
            )
            callbacks[1:] = [resume for _record, resume in pairs]


def parked_tick(env, link, tick: float):
    """Generator: suspend an idle poll-loop until its next useful round.

    A pump that polls ``link`` every ``tick`` seconds spends nearly all
    of its rounds finding nothing — at fleet scale those empty rounds
    dominate the event count.  This helper is virtual-time-equivalent to
    the polling loop but costs events only when messages actually flow:
    it parks on the link's arrival event, then wakes at the first point
    of the pump's tick grid at or after the arrival.

    The grid is replayed by repeated float addition from the time of the
    idle round (exactly the additions the polling loop would have
    performed), and the wake uses :meth:`Environment.timeout_until`, so
    the poll times — and therefore every downstream latency — are
    bit-identical to the polling implementation.  Pollers that wake on
    the same instant share one timeout and leave it in the order the
    polling loop would have fired them (:func:`_poll_order`): a pump's
    place among same-instant pumps is observable wherever handling a
    message chains into a reply and a link reservation.  The consumed
    arrival is pushed back at the head of the link's queue, preserving
    order, and any close-sentinel is re-examined by the caller's normal
    ``poll`` path at the grid time, exactly as before.

    A link that cannot signal arrivals (an in-memory
    :class:`~repro.net.SyncPipe` end) is simply polled: one tick.
    """
    arrival = getattr(link, "arrival", None)
    if arrival is None:
        yield env.timeout(tick)
        return
    parking = env.parking
    if parking is None:
        parking = env.parking = _Parking()
    parking.parks = ordinal = parking.parks + 1
    t0 = env.now
    item = yield arrival()
    now = env.now
    t = t0 + tick
    k = 1
    while t < now:
        t = t + tick
        k += 1
    if t > now:
        yield parking.wake(env, t, tick, (t0, k, ordinal))
    link.requeue(item)


def pump(env, link, handle: Callable[[Any], Any]):
    """Generator: the one drain-and-park loop of a service fed by ``link``.

    A round hands every delivered message to ``handle`` and yields
    ``timeout(0.0)``; an idle round parks through :func:`parked_tick` on
    the :data:`PUMP_TICK` grid, keeping the polling order that handling
    an ack (a reply and its link reservation) makes observable.  Once
    ``handle`` has returned True (the application acked Stop) the link
    stays silent, so the pump ends at its first quiet round.
    """
    poll = link.poll
    done = False
    while True:
        ok, msg = poll()
        if ok:
            while ok:
                done = handle(msg) or done
                ok, msg = poll()
            yield env.timeout(0.0)
        elif done:
            return
        else:
            yield from parked_tick(env, link, PUMP_TICK)


class SteeredApplication:
    """A simulation instrumented for (collaborative) steering.

    The steering loop looks at its simulation at three moments only — a
    sample is shipped, a steerer sets a parameter, someone asks for
    status — so :func:`~repro.steering.runner.steered_app_process` does
    not step it at every compute tick: it calls :meth:`owe_step`, and
    :attr:`sim` is a settle-on-read property that first runs the owed
    steps back to back (through the ordinary ``Simulation.step()``, with
    warm caches) and then hands out exactly the simulation an eager loop
    would have shown.  Numerics cost no virtual time, so no event,
    timestamp or byte depends on *when* between two reads a step ran.

    The one visible consequence: while a steered process is running, the
    application owns its simulation between reads.  A reference to the
    sim object held *outside* the app may lag by up to
    ``sample_interval - 1`` steps until ``app.sim`` is next read; a
    process whose loop has ended is always settled.  (And a step that
    raises does so out of the read that settles it, with the steps it
    cut short still owed.)
    """

    def __init__(
        self,
        sim,
        name: str = "app",
        sample_interval: int = 1,
        param_defs: Optional[list[ParameterDef]] = None,
    ) -> None:
        if sample_interval < 1:
            raise SteeringError("sample_interval must be >= 1")
        self._sim = sim
        #: steps the driving process has paid virtual time for but
        #: :attr:`sim` has not run yet
        self._owed = 0
        self.name = name
        self.sample_interval = sample_interval
        self.registry = ParameterRegistry()
        self._control_links: list = []
        self._sample_sinks: list = []
        self.paused = False
        self.stopped = False
        self.commands_applied = 0
        self.samples_emitted = 0
        self._sample_seq = 0

        overrides = {d.name: d for d in (param_defs or [])}
        for pname in sim.steerable_parameters():
            definition = overrides.get(
                pname, ParameterDef(pname, kind="steered")
            )
            self.registry.register(
                definition,
                getter=lambda n=pname: self.sim.steerable_parameters()[n],
                setter=lambda v, n=pname: self.sim.set_parameter(n, v),
            )
        for oname in sim.observables():
            if oname in self.registry:
                continue
            self.registry.register(
                ParameterDef(oname, kind="monitored"),
                getter=lambda n=oname: self.sim.observables()[n],
            )

    # -- the simulation, settled on read -----------------------------------------

    @property
    def sim(self):
        """The simulation, with every owed step run."""
        sim = self._sim
        # One decrement per step *run*: a step that raises stays owed, so
        # ``step_count + owed`` is what the eager loop would have reached.
        while self._owed:
            sim.step()
            self._owed -= 1
        return sim

    def owe_step(self) -> bool:
        """Record one simulation step as owed; True when a sample is due
        after it (the caller then emits, which settles)."""
        self._owed += 1
        return (self._sim.step_count + self._owed) % self.sample_interval == 0

    # -- wiring -----------------------------------------------------------

    def attach_control(self, link) -> None:
        """Attach a duplex control link (client, service, or proxy end)."""
        self._control_links.append(link)

    def attach_sample_sink(self, link) -> None:
        """Attach a sink that receives emitted samples."""
        self._sample_sinks.append(link)

    # -- command processing -----------------------------------------------------

    def process_control(self) -> int:
        """Drain all control links and apply commands; returns how many.

        Non-blocking by construction; failures are reported back as error
        acks, never raised into the simulation loop.
        """
        applied = 0
        for link in self._control_links:
            while True:
                ok, msg = link.poll()
                if not ok:
                    break
                applied += self._apply(link, msg)
        return applied

    def _apply(self, link, msg) -> int:
        if isinstance(msg, SetParam):
            try:
                self.registry.set(msg.name, msg.value)
            except SteeringError as exc:
                link.send(Ack(msg.seq, False, "SetParam", error=str(exc)))
                return 0
            link.send(
                Ack(msg.seq, True, "SetParam", result=self.registry.get(msg.name))
            )
        elif isinstance(msg, Pause):
            self.paused = True
            link.send(Ack(msg.seq, True, "Pause"))
        elif isinstance(msg, Resume):
            self.paused = False
            link.send(Ack(msg.seq, True, "Resume"))
        elif isinstance(msg, Stop):
            self.stopped = True
            link.send(Ack(msg.seq, True, "Stop"))
        elif isinstance(msg, GetStatus):
            link.send(self.status())
        else:
            link.send(
                Ack(
                    getattr(msg, "seq", -1),
                    False,
                    type(msg).__name__,
                    error="unknown command",
                )
            )
            return 0
        self.commands_applied += 1
        return 1

    def status(self) -> StatusReport:
        sim = self.sim
        return StatusReport(
            step=sim.step_count,
            time=sim.time,
            observables=sim.observables(),
            parameters={
                n: self.registry.get(n) for n in self.registry.names("steered")
            },
            paused=self.paused,
        )

    # -- sample emission -------------------------------------------------------

    def emit_sample(self) -> SampleMsg:
        """Emit one sample to every sink regardless of the interval."""
        self._sample_seq += 1
        sim = self.sim
        msg = SampleMsg(
            seq=self._sample_seq,
            step=sim.step_count,
            data=sim.sample(),
            source=self.name,
        )
        for sink in self._sample_sinks:
            sink.send(msg)
        self.samples_emitted += 1
        return msg

    # -- main loop ---------------------------------------------------------------

    def step_once(self) -> bool:
        """One instrumented iteration; returns False once stopped."""
        self.process_control()
        if self.stopped:
            return False
        if not self.paused:
            self.sim.step()
            if self.sim.step_count % self.sample_interval == 0:
                self.emit_sample()
        return True
