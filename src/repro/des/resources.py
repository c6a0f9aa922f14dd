"""Shared-resource primitives for the DES kernel: stores and resources.

:class:`Store` is the workhorse — every simulated mailbox, socket buffer
and job queue is a store.  :class:`Resource` models mutually exclusive
capacity (CPU slots on a simulated host, graphics pipes on the viz engine).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.des.core import TIMED_OUT, Environment, Event
from repro.errors import SimulationError


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)


class Store:
    """Unbounded FIFO item buffer.

    ``get()`` returns an event a process yields; a getter waits only
    while ``items`` is empty.  An item is handed over one of two ways:

    * :meth:`deliver` — a message arriving, as a kernel callback: a
      parked getter takes the item and resumes inside the delivery's
      own step, so a delivered message costs one kernel event.
    * :meth:`put_nowait` — called from a running process: a parked
      getter's event is queued, and it resumes in a later step (running
      another process from inside this one would be re-entrant).
    """

    __slots__ = ("env", "items", "_get_waiters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: deque = deque()
        self._get_waiters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """:meth:`put_nowait`, plus an already-succeeded event to yield.

        The event is queued before the getter the item serves.
        """
        done = Event(self.env).succeed()
        self.put_nowait(item)
        return done

    def put_nowait(self, item: Any) -> None:
        """Event-free put: a parked getter is served by a queued event."""
        if self._get_waiters:
            self._get_waiters.popleft().succeed(item)
        else:
            self.items.append(item)

    def deliver(self, event: Event) -> None:
        """Event callback: hand the event's value over in place.

        A message in flight is a timeout carrying the message, with this
        bound method as its one callback — no closure per message.  A
        parked getter gets the item and its callbacks run now, in the
        delivery's step, not in a second event queued behind it.
        """
        if not self._get_waiters:
            self.items.append(event._value)
            return
        get = self._get_waiters.popleft()
        get._ok = True
        get._value = event._value
        callbacks = get.callbacks
        get.callbacks = None
        for cb in callbacks:
            cb(get)

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            self._get_waiters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-suspending get: ``(True, item)`` or ``(False, None)``.

        Used by poll-style protocols (the VISIT simulation side must never
        block; it polls its mailbox and walks away if nothing is there).
        """
        if self.items:
            return True, self.items.popleft()
        return False, None


class ResourceRequest(Event):
    __slots__ = ("resource", "_released")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self._released = False

    def release(self) -> None:
        self.resource._release(self)


class Resource:
    """Counting resource with FIFO queuing (e.g. CPU slots, render pipes)."""

    __slots__ = ("env", "capacity", "users", "_queue")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list[ResourceRequest] = []
        self._queue: deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        return len(self.users)

    def request(self) -> ResourceRequest:
        req = ResourceRequest(self)
        self._queue.append(req)
        self._dispatch()
        return req

    def _release(self, req: ResourceRequest) -> None:
        if req._released:
            raise SimulationError("double release of resource request")
        req._released = True
        if req in self.users:
            self.users.remove(req)
        else:
            # Releasing a queued (never-granted) request cancels it.
            try:
                self._queue.remove(req)
            except ValueError:
                raise SimulationError("release of unknown resource request") from None
        self._dispatch()

    def _dispatch(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            req = self._queue.popleft()
            self.users.append(req)
            req.succeed(req)


class Mailbox(Store):
    """A store with a convenience bounded-wait receive.

    ``recv(timeout)`` returns a generator suitable for ``yield from`` that
    resolves to ``(ok, item)`` — the pattern used throughout the simulated
    middleware to honour VISIT's everything-has-a-timeout rule.
    """

    __slots__ = ()

    def recv(self, timeout: Optional[float] = None):
        get = self.get()
        race = get if timeout is None else self.env.first(get, timeout)
        try:
            item = yield race
        except BaseException:
            # The waiter left (interrupted, or its generator closed): a get
            # left queued would hand the next item to nobody, and one
            # already served gives its item back to the head of the box.
            if race is not get:
                race.cancel()
            if not get.triggered:
                self._get_waiters.remove(get)
            elif self._get_waiters:  # then ``items`` is empty
                self._get_waiters.popleft().succeed(get._value)
            else:
                self.items.appendleft(get._value)
            raise
        if item is not TIMED_OUT:
            return True, item
        if get.triggered:
            # Raced: the item was served earlier in the deadline's instant.
            return True, get._value
        self._get_waiters.remove(get)
        return False, None
