"""Self-protection primitives: breakers, tenant quotas, backpressure.

All three run on the *simulated* clock and are strictly opt-in: a
fabric built without them (guarded by :data:`NULL_BREAKER`, admitting
through :data:`NULL_QUOTAS`) behaves byte-identically to one that never
imported this module.

* :class:`CircuitBreaker` — closed/open/half-open on consecutive
  failures, guarding broker placement and registry finds so a dark
  dependency fails fast instead of feeding every session into timeouts;
* :class:`TenantQuotas` — a per-tenant inflight cap checked at
  admission, so one noisy tenant cannot occupy the whole bounded queue;
* :class:`BackpressureSignal` — a 0..1 pressure scalar blending queue
  saturation with :class:`~repro.live.pacing.PacedRunner` catch-up lag,
  the scale-up signal :class:`~repro.load.autoscale.ReactiveAutoscaler`
  consumes ahead of raw queue depth.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CircuitOpen, ObsError

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

#: gauge encoding of breaker state (for the metrics collectors)
STATE_CODE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure breaker on the sim clock.

    CLOSED counts consecutive failures; at ``failure_threshold`` it
    OPENs and sheds calls for ``recovery_time`` sim seconds; then the
    first :meth:`allow` flips to HALF_OPEN and admits up to
    ``half_open_max`` probes — one success re-closes, one failure
    re-opens.  With ``enforcing=False`` the state machine runs in shadow
    mode: :meth:`guard` never raises, but every transition still lands
    in the metrics and the span stream.
    """

    def __init__(
        self,
        name: str,
        env,
        failure_threshold: int = 5,
        recovery_time: float = 5.0,
        half_open_max: int = 1,
        enforcing: bool = True,
    ) -> None:
        if failure_threshold < 1:
            raise ObsError("failure_threshold must be at least 1")
        if recovery_time <= 0:
            raise ObsError("recovery_time must be positive")
        if half_open_max < 1:
            raise ObsError("half_open_max must be at least 1")
        self.name = name
        self.env = env
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_max = half_open_max
        self.enforcing = enforcing
        self.state = CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probes = 0
        # -- accounting ----------------------------------------------------
        self.calls = 0
        self.shorted = 0
        self.successes = 0
        self.failures = 0
        #: (sim time, old state, new state) audit trail
        self.transitions: list[tuple[float, str, str]] = []
        #: subscribers ``cb(breaker, old, new)`` (obs wires spans/metrics)
        self.observers: list[Callable] = []

    def _transition(self, new: str) -> None:
        old = self.state
        if old == new:
            return
        self.state = new
        self.transitions.append((self.env.now, old, new))
        for cb in self.observers:
            cb(self, old, new)

    # -- the protocol ------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?  Drives the state machine."""
        self.calls += 1
        if self.state == OPEN:
            if self.env.now - self._opened_at >= self.recovery_time:
                self._transition(HALF_OPEN)
                self._probes = 1
                return True
            self.shorted += 1
            return False
        if self.state == HALF_OPEN:
            if self._probes < self.half_open_max:
                self._probes += 1
                return True
            self.shorted += 1
            return False
        return True

    def guard(self, what: str) -> None:
        """Raise :class:`CircuitOpen` when the call must be shed."""
        if not self.allow() and self.enforcing:
            raise CircuitOpen(
                f"{self.name} circuit is {self.state}: shedding {what} "
                f"(opened at t={self._opened_at:g}, "
                f"recovery after {self.recovery_time:g}s)"
            )

    def record_success(self) -> None:
        self.successes += 1
        self._consecutive = 0
        if self.state == HALF_OPEN:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        self.failures += 1
        self._consecutive += 1
        if self.state == HALF_OPEN:
            self._opened_at = self.env.now
            self._transition(OPEN)
        elif self.state == CLOSED and self._consecutive >= self.failure_threshold:
            self._opened_at = self.env.now
            self._transition(OPEN)

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "enforcing": self.enforcing,
            "calls": self.calls,
            "shorted": self.shorted,
            "successes": self.successes,
            "failures": self.failures,
            "transitions": [list(t) for t in self.transitions],
        }


class NullBreaker:
    """The breaker of an unguarded dependency (one stateless instance,
    :data:`NULL_BREAKER`): it never sheds a call and counts nothing."""

    def _drop(self, *args) -> None:
        return None

    guard = record_success = record_failure = _drop


NULL_BREAKER = NullBreaker()


def default_tenant(spec) -> str:
    """Tenant of a scenario spec: an explicit ``tenant`` attribute when
    present, else the application kind (``spec.sim``) — the natural
    multi-tenant axis of the showfloor fabric."""
    tenant = getattr(spec, "tenant", None)
    return str(tenant) if tenant else str(spec.sim)


class TenantQuotas:
    """Per-tenant inflight cap enforced at admission time.

    A tenant's *inflight* count covers queued **and** running sessions
    (acquired at offer, released when the session finishes or the
    caller abandons), so a flood from one tenant saturates its own
    quota, not the shared bounded queue.
    """

    def __init__(self, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ObsError("per-tenant quota needs max_inflight >= 1")
        self.max_inflight = max_inflight
        #: session name -> tenant, for every currently-held acquisition
        self._held: dict[str, str] = {}
        self._inflight: dict[str, int] = {}
        self.rejections: dict[str, int] = {}

    def try_acquire(self, spec) -> bool:
        """Count a session against its tenant; False = over quota."""
        name = spec.name
        if name in self._held:
            return True  # requeued recovery traffic already holds its seat
        tenant = default_tenant(spec)
        if self._inflight.get(tenant, 0) >= self.max_inflight:
            self.rejections[tenant] = self.rejections.get(tenant, 0) + 1
            return False
        self._held[name] = tenant
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        return True

    def release(self, name: str) -> None:
        """Free a session's seat (idempotent)."""
        tenant = self._held.pop(name, None)
        if tenant is not None:
            self._inflight[tenant] -= 1

    def inflight(self) -> dict[str, int]:
        return {t: n for t, n in sorted(self._inflight.items()) if n}

    def snapshot(self) -> dict:
        return {
            "max_inflight": self.max_inflight,
            "inflight": self.inflight(),
            "rejections": dict(sorted(self.rejections.items())),
        }


class NullQuotas:
    """The quotas of a fabric built without ``quota`` (one stateless
    instance, :data:`NULL_QUOTAS`): every offer is admitted."""

    def try_acquire(self, spec) -> bool:
        return True

    def release(self, name: str) -> None:
        return None


NULL_QUOTAS = NullQuotas()


class BackpressureSignal:
    """A 0..1 pressure scalar: queue saturation vs. pacing lag.

    ``pressure() = max(queue_depth / queue_limit, behind / behind_limit)``
    clamped to [0, 1].  Queue depth alone misses the live failure mode
    where the paced kernel falls behind the wall clock while the queue
    still looks shallow; the runner's ``behind`` lag catches it.
    """

    def __init__(self, controller, runner=None, behind_limit: float = 1.0) -> None:
        if behind_limit <= 0:
            raise ObsError("behind_limit must be positive")
        self.controller = controller
        self.runner = runner
        self.behind_limit = behind_limit

    def pressure(self) -> float:
        queue = self.controller.queue_depth / max(1, self.controller.queue_limit)
        p = min(1.0, queue)
        if self.runner is not None:
            lag = min(1.0, self.runner.behind / self.behind_limit)
            if lag > p:
                p = lag
        return p
