"""Shared-resource primitives for the DES kernel: stores and resources.

:class:`Store` is the workhorse — every simulated mailbox, socket buffer
and job queue is a store.  :class:`Resource` models mutually exclusive
capacity (CPU slots on a simulated host, graphics pipes on the viz engine).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Optional

from repro.des.core import TIMED_OUT, Environment, Event
from repro.errors import SimulationError


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)


class Store:
    """FIFO item buffer with optional capacity.

    ``put(item)`` and ``get()`` return events; processes yield them.  With
    infinite capacity (the default) puts succeed immediately, which is the
    common case for message mailboxes; a sender that will not wait on the
    put calls ``put_nowait(item)`` and schedules nothing.
    """

    __slots__ = ("env", "capacity", "items", "_put_waiters", "_get_waiters")

    def __init__(self, env: Environment, capacity: float = math.inf) -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        self._put_waiters: deque[StorePut] = deque()
        self._get_waiters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        ev = StorePut(self, item)
        self._put_waiters.append(ev)
        self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Event-free put for fire-and-forget deliveries.

        Same item order and same served getter as :meth:`put`, minus the
        :class:`StorePut` event — which a sender that never yields it
        only pays the kernel to pop.  A bounded store that is full (or
        already has parked putters) cannot take the item now, so it
        queues an ordinary ``put``.
        """
        if self._put_waiters or len(self.items) >= self.capacity:
            self.put(item)
        elif self._get_waiters:
            # a getter only waits while ``items`` is empty
            self._get_waiters.popleft().succeed(item)
        else:
            self.items.append(item)

    def deliver(self, event: Event) -> None:
        """Event callback: :meth:`put_nowait` the event's value.

        A message in flight is a timeout carrying the message, with this
        bound method as its one callback — no closure per message.
        """
        self.put_nowait(event._value)

    def get(self) -> StoreGet:
        ev = StoreGet(self)
        self._get_waiters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        # Admit queued puts while there is room.
        while self._put_waiters and len(self.items) < self.capacity:
            put = self._put_waiters.popleft()
            self.items.append(put.item)
            put.succeed()
        # Serve queued gets while items are available.
        while self._get_waiters and self.items:
            get = self._get_waiters.popleft()
            get.succeed(self.items.popleft())
            # A completed get may free room for a parked put.
            while self._put_waiters and len(self.items) < self.capacity:
                put = self._put_waiters.popleft()
                self.items.append(put.item)
                put.succeed()

    def try_get(self) -> tuple[bool, Any]:
        """Non-suspending get: ``(True, item)`` or ``(False, None)``.

        Used by poll-style protocols (the VISIT simulation side must never
        block; it polls its mailbox and walks away if nothing is there).
        """
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return True, item
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
            if get.triggered:
                self.items.appendleft(get._value)
                self._dispatch()
            else:
                self._get_waiters.remove(get)
            raise
        if item is not TIMED_OUT:
            return True, item
        if get.triggered:
            # Raced: the item was served earlier in the deadline's instant.
            return True, get._value
        self._get_waiters.remove(get)
        return False, None
