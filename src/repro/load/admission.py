"""The admission controller: a bounded queue in front of the grid.

Open-loop traffic cannot simply be launched on arrival — sites have
finite capacity (:mod:`repro.load.capacity`) and callers have finite
patience (:mod:`repro.load.slo`).  The controller is the job-queue /
worker-pool discipline in DES form:

* :meth:`AdmissionController.offer` — a session arrives; if the bounded
  queue is full it is **rejected on the spot** (explicit backpressure,
  never an unbounded queue), otherwise it queues by class priority;
* a queued caller **abandons** after its class's ``patience``;
* a dispatcher process admits the highest-priority queued session
  whenever the placement policy finds a site with a free slot, launching
  it through :meth:`repro.fleet.driver.FleetDriver.admit` and holding
  the slot until the session's process completes.

Every transition is recorded in the fleet's
:class:`~repro.fleet.telemetry.QueueTelemetry`, so the final
:class:`~repro.fleet.report.FleetReport` carries the queueing slice next
to the steering latencies.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from repro.errors import LoadError, ReproError
from repro.fleet.report import FleetReport
from repro.load.arrivals import ArrivalProcess
from repro.load.capacity import CapacityLedger
from repro.load.placement import LeastLoaded, PlacementPolicy
from repro.load.slo import RETRY, SloClass, classify
from repro.obs.protect import NULL_QUOTAS
from repro.obs.tracer import NULL_TRACER

QUEUED, ADMITTED, ABANDONED = "queued", "admitted", "abandoned"


class _Queued:
    """One waiting session."""

    __slots__ = ("spec", "cls", "offered_at", "seq", "state", "span")

    def __init__(self, spec, cls: SloClass, offered_at: float, seq: int) -> None:
        self.spec = spec
        self.cls = cls
        self.offered_at = offered_at
        self.seq = seq
        self.state = QUEUED
        self.span = None  # open "admit" span while queued (None untraced)


class AdmissionController:
    """Bounded priority-FIFO admission over a FleetDriver's fabric."""

    def __init__(
        self,
        driver,
        ledger: Optional[CapacityLedger] = None,
        placement: Optional[PlacementPolicy] = None,
        queue_limit: int = 16,
        classifier: Callable[..., SloClass] = classify,
    ) -> None:
        if queue_limit < 1:
            raise LoadError("admission queue needs at least one slot")
        self.driver = driver
        self.env = driver.env
        self.ledger = ledger or CapacityLedger.for_driver(driver)
        self.placement = placement or LeastLoaded()
        self.queue_limit = queue_limit
        self.classifier = classifier
        self.telemetry = driver.telemetry.ensure_queue()
        #: (name, class name, admission wait met the SLO) per admission,
        #: in admission order — the goodput raw material
        self.admissions: list[tuple[str, str, bool]] = []
        #: queue-transition subscribers ``cb(kind, **detail)`` — the
        #: chaos invariant monitor mirrors conservation laws off these
        self.observers: list[Callable] = []
        #: the null twins until ``driver.obs.attach_controller`` sets them
        self.tracer = NULL_TRACER
        self.quotas = NULL_QUOTAS
        driver.obs.attach_controller(self)
        self._heap: list[tuple[int, int, _Queued]] = []
        self._queued = 0
        self._seq = 0
        self._wake = self.env.event()
        self.env.process(self._dispatch_loop())

    def _notify(self, kind: str, **detail) -> None:
        for cb in self.observers:
            cb(kind, **detail)

    # -- arrivals ----------------------------------------------------------

    def offer(self, spec) -> bool:
        """A session arrives now.  Returns False when rejected on a full
        queue (backpressure); True when it enters the queue."""
        now = self.env.now
        cls = self.classifier(spec)
        self.telemetry.record_offer(cls.name)
        self._notify("offer", spec=spec, cls=cls.name)
        if self._queued >= self.queue_limit:
            self.telemetry.record_reject(cls.name)
            self._notify("reject", spec=spec, cls=cls.name)
            self._trace_reject(spec, cls, "queue-full")
            return False
        if not self.quotas.try_acquire(spec):
            # The tenant is over its inflight cap: shed this offer even
            # though the shared queue has room — one noisy tenant must
            # not occupy every seat.  Counts as a reject (the offered ==
            # admitted + rejected + abandoned + queued conservation law
            # keeps holding) with the reason in the observer detail.
            self.telemetry.record_reject(cls.name)
            self._notify("reject", spec=spec, cls=cls.name, reason="quota")
            self._trace_reject(spec, cls, "quota")
            return False
        self._enqueue(spec, cls, now)
        return True

    def _trace_reject(self, spec, cls: SloClass, reason: str) -> None:
        tracer = self.tracer
        root = tracer.open_session(spec.name, cls=cls.name)
        tracer.instant("reject", parent=root, reason=reason)
        tracer.close_session(spec.name, "rejected")

    def requeue(self, spec) -> None:
        """Re-enqueue a session displaced by a fault (recovery traffic).

        Unlike :meth:`offer` this never bounces on a full queue — the
        backpressure bound sheds *fresh* arrivals, but work the grid
        already accepted must not be lost to it — and it queues at
        :data:`~repro.load.slo.RETRY` priority, ahead of every arrival
        class, so recovery latency is the time to find capacity, not the
        time to out-wait the backlog.
        """
        self.telemetry.record_requeue(RETRY.name)
        self._notify("requeue", spec=spec, cls=RETRY.name)
        self._enqueue(spec, RETRY, self.env.now)

    def _enqueue(self, spec, cls: SloClass, now: float) -> None:
        entry = _Queued(spec, cls, offered_at=now, seq=self._seq)
        tracer = self.tracer
        root = tracer.open_session(spec.name, cls=cls.name)
        entry.span = tracer.record_admit(
            spec.name, tracer.begin("admit", cat="queue", parent=root, cls=cls.name)
        )
        self._seq += 1
        heapq.heappush(self._heap, (cls.priority, entry.seq, entry))
        self._queued += 1
        self.telemetry.record_depth(now, self._queued)
        self.env.process(self._patience(entry))
        # Admit synchronously when a slot is free right now — a caller
        # arriving at an idle grid must not wait on the dispatcher's
        # next wakeup, and the recorded wait is exactly zero.
        self._drain()

    def feed(self, arrivals: ArrivalProcess):
        """Offer every arrival at its instant; returns the feeder process."""
        return self.env.process(self._feed(arrivals))

    def _feed(self, arrivals):
        for at, spec in arrivals:
            if at > self.env.now:
                yield self.env.timeout(at - self.env.now)
            self.offer(spec)

    # -- queue machinery ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queued

    def kick(self) -> None:
        """Wake the dispatcher (new arrival, freed slot, grown site)."""
        if not self._wake.triggered:
            self._wake.succeed()

    def _patience(self, entry: _Queued):
        yield self.env.timeout(entry.cls.patience)
        if entry.state == QUEUED:
            entry.state = ABANDONED
            self._queued -= 1
            self.telemetry.record_abandon(entry.cls.name)
            self.telemetry.record_depth(self.env.now, self._queued)
            self.tracer.end(entry.span, outcome="abandoned")
            self.tracer.close_session(entry.spec.name, "abandoned")
            self.quotas.release(entry.spec.name)
            self._notify("abandon", spec=entry.spec, cls=entry.cls.name)

    def _peek(self) -> Optional[_Queued]:
        while self._heap and self._heap[0][2].state != QUEUED:
            heapq.heappop(self._heap)
        return self._heap[0][2] if self._heap else None

    def _dispatch_loop(self):
        while True:
            self._drain()
            self._wake = self.env.event()
            yield self._wake

    def _drain(self) -> None:
        while True:
            entry = self._peek()
            if entry is None:
                return
            site = self.placement.choose(entry.spec, self.ledger)
            if site is None:
                # Head-of-line waits for a freed slot; lower-priority
                # entries behind it must not jump the queue.
                return
            heapq.heappop(self._heap)
            self.ledger.acquire(site)
            self._notify("acquire", site=site)
            entry.state = ADMITTED
            self._queued -= 1
            now = self.env.now
            wait = now - entry.offered_at
            met_slo = wait <= entry.cls.wait_slo
            self.telemetry.record_admit(entry.cls.name, wait, met_slo)
            self.telemetry.record_depth(now, self._queued)
            self.tracer.end(entry.span, outcome="admitted", site=site, wait=wait)
            self.admissions.append((entry.spec.name, entry.cls.name, met_slo))
            self._notify("admit", spec=entry.spec, cls=entry.cls.name, site=site, wait=wait)
            self.env.process(self._run_session(entry, site))

    def _run_session(self, entry: _Queued, site: int):
        proc = self.driver.admit(entry.spec, site=site)
        try:
            yield proc
        except ReproError:
            # The driver's session loop already recorded the failure in
            # its telemetry; the slot still frees below.
            pass
        finally:
            self.ledger.release(site)
            self.quotas.release(entry.spec.name)
            self._notify("release", site=site)
            self.kick()

    # -- backpressure ------------------------------------------------------

    def retry_after(self) -> float:
        """A worst-case bound, in sim seconds, on when a queue slot frees.

        Every queued entry leaves the queue by admission or by running
        out of patience, so the *minimum remaining patience* over queued
        entries bounds the time until the bounded queue has room again
        (slots usually free much sooner, when a running session
        completes).  With an empty queue the next :meth:`offer` is
        accepted immediately and the bound is zero.  This is the number
        a live front end converts to a ``Retry-After`` header.

        Entries whose patience has *already elapsed* are skipped: their
        abandonment sweep fires on the next kernel step, so their
        remaining patience clamps to zero — and a full queue of them
        used to advertise an immediate retry, inviting every rejected
        caller back at once (a thundering herd against a still-full
        queue).  The bound falls back to the next fresh entry's
        remaining patience; when *every* queued entry is expired it
        falls back to the shortest patience among them — the
        next-abandonment horizon a replacement entry would face.
        """
        now = self.env.now
        soonest = math.inf
        expired_floor = math.inf
        queued = False
        for _, _, entry in self._heap:
            if entry.state != QUEUED:
                continue
            queued = True
            remaining = entry.offered_at + entry.cls.patience - now
            if remaining > 0.0:
                if remaining < soonest:
                    soonest = remaining
            elif entry.cls.patience < expired_floor:
                expired_floor = entry.cls.patience
        if not queued:
            return 0.0
        if soonest < math.inf:
            return soonest
        if expired_floor < math.inf:
            return expired_floor
        return math.inf

    def backpressure(self) -> dict:
        """A JSON-able snapshot of the admission pressure right now."""
        return {
            "queue_depth": self._queued,
            "queue_limit": self.queue_limit,
            "saturated": self._queued >= self.queue_limit,
            "free_slots": sum(
                self.ledger.free(i) for i in self.ledger.active_sites()
            ),
            "retry_after": self.retry_after(),
        }

    # -- convenience -------------------------------------------------------

    def run(
        self,
        arrivals: ArrivalProcess,
        until: Optional[float] = None,
        grace: float = 45.0,
        wall_seconds: Optional[float] = None,
    ) -> FleetReport:
        """Feed the arrival stream, run the world, return the report.

        ``until`` defaults to the arrival horizon plus ``grace`` so
        sessions admitted near the end can finish.
        """
        self.feed(arrivals)
        self.env.run(until=arrivals.horizon + grace if until is None else until)
        return self.driver.report(wall_seconds=wall_seconds)
