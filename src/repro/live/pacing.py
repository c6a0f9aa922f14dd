"""Paced wall-clock driver for the DES kernel.

Batch campaigns run the :class:`~repro.des.core.Environment` as fast as
the heap drains; a live control plane instead needs virtual time to
track the wall clock so an HTTP client steering a running session sees
its effects *now*, not after the world has sprinted to quiescence.

:class:`PacedRunner` owns the mapping.  It anchors ``(wall, sim)`` once
and then, every tick, steps all events whose virtual time is due under

    sim_target = anchor_sim + (wall_now - anchor_wall) * rate

sleeping until the next event's wall instant (bounded by ``max_tick``)
when ahead, and counting a **catch-up** whenever a full batch of steps
still leaves due events behind — the paced analogue of a missed frame
deadline.  ``rate`` is sim-seconds per wall-second: ``1.0`` is real
time, ``10.0`` a 10x fast-forward, and ``None`` switches to **turbo**
(as fast as possible, in bounded batches that still yield to the event
loop so HTTP handlers stay live).

Externally injected work (an HTTP handler calling
``controller.offer(...)`` between ticks) lands on the kernel heap
through ``Environment._enqueue``, whose ``on_schedule`` hook the runner
points at :meth:`kick` while running — so a sleep until the *previous*
next-event time is cut short the moment earlier work arrives.  Because
everything shares one asyncio thread, handlers only run while the
runner awaits; no locking is needed anywhere.
"""

from __future__ import annotations

import asyncio
import math
from time import perf_counter
from typing import Optional

from repro.des.core import Environment
from repro.errors import LiveError

#: longest uninterrupted sleep — bounds the cost of any missed wakeup
DEFAULT_MAX_TICK = 0.25
#: events stepped per batch before yielding back to the event loop
DEFAULT_BATCH = 512


def _check_rate(rate: Optional[float]) -> Optional[float]:
    if rate is None:
        return None
    rate = float(rate)
    if not math.isfinite(rate) or rate <= 0.0:
        raise LiveError(f"pacing rate must be a positive finite number or None, got {rate!r}")
    return rate


class PacedRunner:
    """Drive an :class:`Environment` against the wall clock."""

    def __init__(
        self,
        env: Environment,
        rate: Optional[float] = 1.0,
        max_tick: float = DEFAULT_MAX_TICK,
        batch: int = DEFAULT_BATCH,
    ) -> None:
        if max_tick <= 0.0:
            raise LiveError(f"max_tick must be positive, got {max_tick!r}")
        if batch < 1:
            raise LiveError(f"batch must be at least 1, got {batch!r}")
        self.env = env
        self.rate = _check_rate(rate)
        self.max_tick = float(max_tick)
        self.batch = int(batch)
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        self._running = False
        self._anchor_wall = 0.0
        self._anchor_sim = env.now
        # -- accounting ------------------------------------------------
        #: ticks that stepped at least one event
        self.ticks = 0
        #: ticks where a full batch still left due events (fell behind)
        self.catchups = 0
        #: worst observed lag behind the wall clock, in wall seconds
        self.max_behind = 0.0
        #: wall seconds spent inside kernel ``step()`` calls
        self.stepping_wall = 0.0
        #: events stepped under this runner
        self.events = 0
        #: sim seconds advanced inside those ``step()`` calls — together
        #: with ``stepping_wall`` this measures how fast the kernel
        #: *actually* converts wall time into sim time, which is the
        #: only sim->wall mapping turbo mode has (see
        #: :attr:`sim_rate`; the live 429 path derives its turbo
        #: Retry-After from it)
        self.sim_stepped = 0.0

    # -- control (callable from handlers on the same loop) -------------

    def kick(self) -> None:
        """Wake the runner early; installed as ``env.on_schedule``."""
        if self._wake is not None:
            self._wake.set()

    def stop(self) -> None:
        """Ask :meth:`run` to return after the current tick."""
        self._stopping = True
        self.kick()

    def _rebase(self) -> None:
        self._anchor_wall = perf_counter()
        self._anchor_sim = self.env.now

    @property
    def sim_rate(self) -> Optional[float]:
        """Measured sim-seconds per wall-second of kernel stepping, or
        ``None`` before any stepping time has accrued.  This is the
        kernel's *drain throughput* (sim time advanced per second spent
        inside ``step()``), i.e. the fastest sustainable pacing rate —
        and in turbo mode the only sim->wall mapping there is, which
        the live 429 path uses to turn a sim-time backlog bound into a
        wall-clock Retry-After."""
        if self.stepping_wall <= 0.0 or self.sim_stepped <= 0.0:
            return None
        return self.sim_stepped / self.stepping_wall

    @property
    def behind(self) -> float:
        """Current lag behind the wall clock, in wall seconds (paced
        mode only; 0.0 when turbo, idle, or keeping up)."""
        if self.rate is None or not self._running:
            return 0.0
        target = self._anchor_sim + (perf_counter() - self._anchor_wall) * self.rate
        nxt = self.env.peek()
        if nxt > target:
            return 0.0
        return (target - nxt) / self.rate

    def stats(self) -> dict:
        """JSON-able accounting snapshot (for ``/statsz`` and benches)."""
        return {
            "rate": self.rate,
            "ticks": self.ticks,
            "catchups": self.catchups,
            "max_behind": self.max_behind,
            "stepping_wall": self.stepping_wall,
            "events": self.events,
            "sim_stepped": self.sim_stepped,
            "sim_rate": self.sim_rate,
            "behind": self.behind,
            "sim_now": self.env.now,
        }

    # -- the loop -------------------------------------------------------

    def _step_due(self, target: float) -> int:
        """Step up to one batch of events due at or before ``target``;
        returns how many were stepped."""
        env = self.env
        peek = env.peek
        t0 = perf_counter()
        sim0 = env.now
        n = 0
        while n < self.batch:
            nxt = peek()
            if nxt > target or nxt == math.inf:
                break
            env.step()
            n += 1
        self.stepping_wall += perf_counter() - t0
        self.sim_stepped += env.now - sim0
        self.events += n
        if n:
            self.ticks += 1
        return n

    async def _sleep(self, delay: Optional[float]) -> None:
        """Sleep up to ``delay`` wall seconds (``None`` = ``max_tick``),
        returning early when :meth:`kick` fires."""
        assert self._wake is not None
        delay = self.max_tick if delay is None else min(delay, self.max_tick)
        if delay <= 0.0:
            await asyncio.sleep(0)
            return
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=delay)
        except asyncio.TimeoutError:
            pass

    async def run(self, until: Optional[float] = None) -> None:
        """Drive the kernel until :meth:`stop` (or sim time ``until``).

        In paced mode virtual time tracks the wall clock at ``rate``
        sim-seconds per wall-second; in turbo mode (``rate is None``)
        the heap drains in bounded batches with a yield between them.
        With ``until=None`` an empty heap is *idle*, not done — the
        runner parks until injected work kicks it.
        """
        if self._running:
            raise LiveError("PacedRunner.run() is already active")
        env = self.env
        self._running = True
        self._stopping = False
        self._wake = asyncio.Event()
        previous_hook = env.on_schedule
        env.on_schedule = self.kick
        self._rebase()
        try:
            while not self._stopping:
                if self.rate is None:
                    target = math.inf if until is None else until
                else:
                    wall = perf_counter()
                    target = self._anchor_sim + (wall - self._anchor_wall) * self.rate
                    if until is not None:
                        target = min(target, until)
                stepped = self._step_due(target)
                nxt = env.peek()
                if nxt <= target and nxt < math.inf:
                    # A full batch and still behind: catch-up pressure.
                    self.catchups += 1
                    if self.rate is not None:
                        lag = (target - nxt) / self.rate
                        if lag > self.max_behind:
                            self.max_behind = lag
                    await asyncio.sleep(0)
                    continue
                # Caught up.  Mirror Environment.run(): a reached
                # deadline advances the clock even with nothing left.
                if self.rate is not None and target > env.now:
                    env.now = target
                if until is not None:
                    if self.rate is None:
                        # Turbo caught-up means nothing due before the
                        # deadline remains — jump straight to it.
                        env.now = until
                        break
                    if env.now >= until:
                        env.now = until
                        break
                self._wake.clear()
                if self.rate is None:
                    if stepped:
                        await asyncio.sleep(0)
                    else:
                        await self._sleep(None)  # idle: park until kicked
                elif (nxt := env.peek()) < math.inf:
                    ahead = (nxt - target) / self.rate
                    await self._sleep(ahead)
                else:
                    await self._sleep(None)
        finally:
            env.on_schedule = previous_hook
            self._running = False
            self._wake = None

    async def finish(self, grace: float = 60.0) -> dict:
        """Graceful drain after :meth:`run` returns: run the remaining
        schedule as fast as possible up to ``now + grace`` sim seconds
        (in bounded batches, yielding between them), so sessions in
        flight at shutdown complete instead of being torn mid-protocol.
        Returns ``{"events": stepped, "drained": fully_drained}``.
        """
        if self._running:
            raise LiveError("finish() while run() is active; call stop() first")
        if grace < 0.0:
            raise LiveError(f"drain grace must be non-negative, got {grace!r}")
        env = self.env
        deadline = env.now + grace
        stepped = 0
        while env.peek() <= deadline:
            stepped += self._step_due(deadline)
            await asyncio.sleep(0)
        return {"events": stepped, "drained": not env.pending}
