"""Core of the discrete-event kernel: events, processes, the environment.

Design notes
------------
* An :class:`Event` has three phases: *pending* (created), *triggered*
  (given a value/exception and queued), *processed* (callbacks ran).
* A :class:`Process` wraps a generator.  The generator yields events; when
  a yielded event is processed the process resumes with the event's value,
  or has the event's exception thrown into it.
* Time only advances in :meth:`Environment.run`; scheduling is one
  binary heap (C ``heapq``) of ``(time, priority, sequence, event)``
  tuples, so same-time events fire URGENT first and then in FIFO order —
  this determinism is load-bearing for every golden test.  ``sequence``
  is unique, so the trailing event is never compared.  A NaN time would
  break the heap invariant silently; every scheduling call refuses one.
* Failed events must be consumed.  If a failed event is processed and no
  waiter "defused" it, the exception propagates out of ``run()`` — silent
  failure of a simulated component would otherwise be invisible.

Hot-path notes (the fleet pushes millions of events through this file)
----------------------------------------------------------------------
* Every event class carries ``__slots__``: the kernel allocates one event
  per timeout/park/resume, and instance dicts double both the allocation
  cost and the memory traffic.
* :meth:`Environment.timeout` builds its :class:`Timeout` without the
  constructor chain (``__new__`` plus five slot stores) and pushes it
  itself; every timeout is a fresh object, so one a caller still holds
  keeps its post-processing Event API.
* :meth:`Process.interrupt` does not remove the stale resume callback
  from the abandoned target (an O(n) ``list.remove``); it clears the
  process's ``_target`` and :meth:`Process._resume` drops events that are
  no longer the current target (tombstoning).
* ``_pending_failures`` is a deque: failures surface FIFO via
  ``popleft`` instead of ``list.pop(0)``.
* A wait with a deadline is :meth:`Environment.first`, which queues
  nothing of its own.  A deadline its event beats stays in the heap with
  ``callbacks`` set to ``None``; :meth:`Environment.step` pops it, moves
  the clock, and neither runs nor counts it (lazy deletion: the heap
  stays a plain binary heap).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

_PENDING = object()

#: Priority for events that must fire before normal ones at the same time
#: (process initialization, interrupts).
URGENT = 0
NORMAL = 1

#: what a race from :meth:`Environment.first` resolves with when its
#: deadline comes first
TIMED_OUT = object()


class Event:
    """An occurrence at a point in virtual time, with callbacks.

    Callbacks are functions ``cb(event)``; they run when the environment
    processes the event.  After processing, ``callbacks`` is ``None`` and
    further ``succeed``/``fail`` calls are errors.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: set when a waiter took responsibility for a failure
        self.defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._enqueue(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._enqueue(self, NORMAL)
        return self

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.callbacks is None else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._enqueue(self, NORMAL, delay)


class Initialize(Event):
    """Urgent event used internally to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._cb)
        process._target = self
        env._enqueue(self, URGENT)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class _InterruptEvent(Event):
    """Urgent failed event carrying an Interrupt into the target process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process", cause: Any) -> None:
        super().__init__(env)
        self._ok = False
        self._value = Interrupt(cause)
        self.defused = True
        self.callbacks.append(process._cb)
        env._enqueue(self, URGENT)


class Process(Event):
    """A running generator; also an event that triggers when it finishes.

    The process event succeeds with the generator's return value, or fails
    with its uncaught exception (which propagates out of ``run()`` unless
    some other process is waiting on it).
    """

    __slots__ = ("_generator", "_target", "_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process target {generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        #: the bound resume callback, created once instead of per park
        self._cb = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The abandoned target keeps its (now stale) resume callback — a
        tombstone — which :meth:`_resume` ignores because the event is no
        longer the process's ``_target``.  This avoids the O(n)
        ``callbacks.remove`` a busy event would otherwise pay.
        """
        if self._value is not _PENDING:
            raise SimulationError("cannot interrupt a finished process")
        self._target = None
        _InterruptEvent(self.env, self, cause)

    def _resume(self, event: Event) -> None:
        # Tombstone check: an event that is no longer the park target was
        # abandoned by interrupt(); drop its callback silently.  Interrupt
        # events themselves always land (several may be in flight).
        if event is not self._target and type(event) is not _InterruptEvent:
            return
        self._target = None
        gen = self._generator
        send = gen.send
        throw = gen.throw
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The waiter (this process) takes responsibility.
                    event.defused = True
                    next_event = throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                err = SimulationError(
                    f"process yielded non-event {next_event!r}; yield "
                    "env.timeout(...), store.get(), or another event"
                )
                self.fail(err)
                return

            if next_event.callbacks is not None:
                # Not yet processed: park until it is.
                next_event.callbacks.append(self._cb)
                self._target = next_event
                break
            # Already processed: consume its value immediately and keep
            # driving the generator without returning to the scheduler.
            event = next_event


class AllOf(Event):
    """Composite event that triggers once every sub-event has triggered.

    Succeeds with an ordered dict ``{event: value}`` of the sub-events.
    If any sub-event fails first, the condition fails with that exception.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different environments")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            if not event._ok and not event.defused:
                # Condition already decided; don't swallow the failure.
                event.defused = True
                self.env._pending_failures.append(event._value)
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count >= len(self.events):
            self.succeed({ev: ev._value for ev in self.events})


class First(Event):
    """The race :meth:`Environment.first` returns; it is never queued.

    A deadline the event beats is cancelled in place: its callbacks
    become ``None``, so :meth:`Environment.step` pops it and runs nothing.
    """

    __slots__ = ("_deadline",)

    def __init__(self, env: "Environment", event: Event, timeout: float) -> None:
        super().__init__(env)
        if event.env is not env:
            raise SimulationError("first() races an event from another environment")
        self._deadline: Optional[Timeout] = None
        if event.callbacks is None:  # already processed: decided now
            self._decide(event)
            return
        decide = self._decide
        self._deadline = env.timeout(timeout, TIMED_OUT)
        self._deadline.callbacks.append(decide)
        event.callbacks.append(decide)

    def cancel(self) -> None:
        """Leave the race: it never resolves, and its deadline runs nothing."""
        self.callbacks = None
        if self._deadline is not None:
            self._deadline.callbacks = None

    def _decide(self, event: Event) -> None:
        callbacks = self.callbacks
        if callbacks is None:  # decided already, or cancelled
            return
        self.callbacks = None
        if self._deadline is not None:
            self._deadline.callbacks = None
        self._ok = event._ok
        self._value = event._value
        for cb in callbacks:
            cb(self)
        if not self._ok and self.defused:
            # a waiter took the failure; one nobody took still ends run()
            event.defused = True


class Environment:
    """Owner of virtual time and the event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        if self.now != self.now:  # NaN: every later ``now + delay`` would be one too
            raise SimulationError("initial_time is NaN")
        #: the event queue: a heap of ``(time, priority, seq, event)``
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._pending_failures: deque[BaseException] = deque()
        #: total events processed since construction (benching)
        self.events_processed = 0
        #: slot for :func:`repro.steering.api.parked_tick`: the park counter
        #: and open shared wakes of this world's parked poll loops, kept
        #: here so that state lives and dies with the environment
        self.parking: Any = None
        #: optional zero-arg pacing hook fired whenever an event is
        #: scheduled through :meth:`_enqueue` — process initialization,
        #: ``succeed``/``fail`` and plain :class:`Timeout` construction,
        #: i.e. every path external code (an HTTP handler between run
        #: slices) uses to inject work.  A paced wall-clock driver
        #: (:mod:`repro.live.pacing`) installs its waker here so a sleep
        #: until the *previous* next-event time is cut short when new,
        #: earlier work arrives.  The timeout fast paths
        #: (:meth:`timeout` / :meth:`timeout_until`) deliberately skip
        #: the hook: they are only reachable from processes already
        #: running inside ``step()``, while the pacer is awake.
        self.on_schedule: Optional[Callable[[], None]] = None

    # -- scheduling ----------------------------------------------------

    def _enqueue(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"scheduling delay must be >= 0, got {delay!r}")
        self._seq += 1
        heappush(self._queue, (self.now + delay, priority, self._seq, event))
        if self.on_schedule is not None:
            self.on_schedule()

    # -- event factories -----------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def _fresh_timeout(self, value: Any) -> Timeout:
        """An unscheduled Timeout (``Timeout.__init__`` would schedule it)."""
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev.defused = False
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A timeout ``delay`` from now."""
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"negative timeout delay {delay!r}")
        ev = self._fresh_timeout(value)
        ev.delay = delay
        self._seq += 1
        heappush(self._queue, (self.now + delay, NORMAL, self._seq, ev))
        return ev

    def timeout_until(self, at: float, value: Any = None) -> Timeout:
        """A timeout at *absolute* virtual time ``at`` (>= now).

        ``timeout(at - now)`` schedules at ``now + (at - now)``, which is
        not always float-identical to ``at``; processes replaying a
        skipped poll grid (see the service pumps) need the exact heap key.
        """
        if not at >= self.now:  # also refuses NaN
            raise SimulationError(f"timeout_until({at}) is in the past (now={self.now})")
        ev = self._fresh_timeout(value)
        ev.delay = at - self.now
        self._seq += 1
        heappush(self._queue, (at, NORMAL, self._seq, ev))
        return ev

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def first(self, event: Event, timeout: float) -> First:
        """A race between ``event`` and a deadline ``timeout`` from now.

        The race resolves with ``event``'s outcome (its value, or its
        failure), or with :data:`TIMED_OUT` if the deadline is processed
        first; if ``event`` has been processed already, it is decided at
        once and schedules no deadline.  Either way no event of its own
        is queued: the waiter resumes in the step that decides the race.
        """
        return First(self, event, timeout)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution -------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        queue = self._queue
        return queue[0][0] if queue else float("inf")

    @property
    def pending(self) -> int:
        """Number of heap entries not yet popped, cancelled deadlines included."""
        return len(self._queue)

    def step(self) -> None:
        """Pop one heap entry and process its event.

        An entry whose event has already been processed is a deadline a
        :class:`First` race cancelled (lazy deletion): popping it still
        advances ``now``, but runs nothing and is not counted.
        """
        try:
            time, _prio, _seq, event = heappop(self._queue)
        except IndexError:
            raise SimulationError("step() on an empty schedule") from None
        if time < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = time
        callbacks = event.callbacks
        if callbacks is None:
            return
        event.callbacks = None
        # walked live, not copied: a callback may reorder the ones behind
        # it (the shared wake of parked poll loops, steering.api, does)
        for cb in callbacks:
            cb(event)
        self.events_processed += 1
        if not event._ok and not event.defused:
            raise event._value
        pending = self._pending_failures
        if pending:
            raise pending.popleft()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the schedule drains, a deadline, or an event triggers.

        ``until`` may be:
          * ``None`` — run until no events remain;
          * a number — run until virtual time reaches it;
          * an :class:`Event` — run until it triggers, returning its value.
        """
        step = self.step
        queue = self._queue
        if isinstance(until, Event):
            stop = until
            while stop._value is _PENDING:
                if not queue:
                    raise SimulationError("schedule drained before the awaited event triggered")
                step()
            if not stop._ok:
                stop.defused = True
                raise stop._value
            return stop._value

        deadline = float("inf") if until is None else float(until)
        if not deadline >= self.now:  # also refuses NaN
            raise SimulationError(f"run(until={deadline}) is in the past (now={self.now})")
        while queue and queue[0][0] <= deadline:
            step()
        if deadline != float("inf"):
            self.now = deadline
        return None
