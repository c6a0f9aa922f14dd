"""Continuous conservation-law checking for a (possibly faulted) fleet.

A chaos run is only evidence if somebody proves the machinery stayed
honest *while* the faults were firing.  The :class:`InvariantMonitor`
does that two ways:

* **event mirrors** — it subscribes to the driver's session lifecycle
  and the admission controller's queue transitions and keeps its own
  shadow counts, so double-starts, finishes-without-starts and
  acquire/release imbalances are caught at the exact instant they occur;
* **periodic sweeps** — every ``interval`` virtual seconds (and once
  more in :meth:`final_check`) it audits global laws that need the whole
  world: queue conservation, ledger balance, single placement, registry
  shard routing, handle resolvability, telemetry merge losslessness.

The laws, stated precisely:

1. ``offered == admitted + rejected + abandoned + queued`` at all times
   (requeues count as offers — nothing enters the grid unaccounted).
2. ``acquires - releases == ledger.total_inflight`` and every per-site
   in-flight count stays within ``[0, slots]``.
3. Every session starts at most once, finishes at most once, and a
   finish implies a start: **no session is lost or double-placed**.
4. Every session name maps to exactly one site, and every running
   session's site exists.
5. Every published handle lives in exactly **one** registry shard, on
   the shard ``crc32(handle) % n`` says, and resolves through every
   front-end — including mid-rebalance and after shard loss/rebuild.
6. Fleet-merged telemetry is lossless: merged sample counts equal the
   sum of per-session counts (the mergeable-accumulator contract).
   Every sweep folds the Welford moments, which is all a count needs;
   :meth:`final_check` also unions the reservoirs and holds their
   count to the same sum.

Violations accumulate as strings; :meth:`assert_ok` raises
:class:`~repro.errors.ChaosError` listing every one.  A monitor on a
healthy run is silent — that silence is what the chaos property tests
assert under random fault schedules.
"""

from __future__ import annotations

from repro.errors import ChaosError, OgsaError
from repro.fleet.registry_fed import shard_index


#: the per-session latency series law 6 audits
_PROBES = ("steer_latency", "find_latency", "admit_latency")


class InvariantMonitor:
    """Attach to a driver (and optionally a controller) and keep watch."""

    def __init__(
        self,
        driver,
        controller=None,
        interval: float = 1.0,
        max_violations: int = 50,
    ) -> None:
        if interval <= 0:
            raise ChaosError("monitor interval must be > 0")
        self.driver = driver
        self.env = driver.env
        self.controller = controller
        self.interval = interval
        self.max_violations = max_violations
        self.violations: list[str] = []
        self.sweeps = 0
        # event mirrors
        self._started: set[str] = set()
        self._finished: set[str] = set()
        self._acquired = 0
        self._released = 0
        self._offered = 0
        self._admitted = 0
        self._rejected = 0
        self._abandoned = 0
        driver.session_observers.append(self._on_session)
        if controller is not None:
            controller.observers.append(self._on_queue)
        self.env.process(self._loop())

    # -- recording ---------------------------------------------------------

    def _violate(self, law: str, detail: str) -> None:
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(f"[t={self.env.now:.3f}] {law}: {detail}")

    def _on_session(self, kind: str, name: str, site: int) -> None:
        if kind == "start":
            if name in self._started:
                self._violate("single-start", f"session {name!r} started twice")
            self._started.add(name)
        elif kind in ("complete", "fail", "cancel"):
            if name not in self._started:
                self._violate(
                    "finish-implies-start",
                    f"session {name!r} finished ({kind}) without starting",
                )
            if name in self._finished:
                self._violate("single-finish", f"session {name!r} finished twice")
            self._finished.add(name)

    def _on_queue(self, kind: str, **detail) -> None:
        if kind in ("offer", "requeue"):
            self._offered += 1
        elif kind == "reject":
            self._rejected += 1
        elif kind == "abandon":
            self._abandoned += 1
        elif kind == "admit":
            self._admitted += 1
        elif kind == "acquire":
            self._acquired += 1
        elif kind == "release":
            self._released += 1
            if self._released > self._acquired:
                self._violate(
                    "ledger-balance",
                    f"release #{self._released} before matching acquire",
                )

    # -- sweeping ----------------------------------------------------------

    def _loop(self):
        while True:
            yield self.env.timeout(self.interval)
            self.sweep()

    def sweep(self) -> None:
        """One full audit of the global laws, at the current instant."""
        self.sweeps += 1
        self._check_queue_conservation()
        self._check_ledger()
        self._check_sessions()
        self._check_placement()
        self._check_registry()
        self._check_telemetry()

    def _check_queue_conservation(self) -> None:
        if self.controller is None:
            return
        q = self.controller.telemetry
        in_queue = self.controller.queue_depth
        lhs, rhs = q.offered, q.admitted + q.rejected + q.abandoned + in_queue
        if lhs != rhs:
            self._violate(
                "queue-conservation",
                f"offered={lhs} != admitted+rejected+abandoned+queued={rhs}",
            )
        if (q.offered, q.admitted, q.rejected, q.abandoned) != (
            self._offered, self._admitted, self._rejected, self._abandoned
        ):
            self._violate(
                "queue-mirror",
                f"telemetry ({q.offered},{q.admitted},{q.rejected},"
                f"{q.abandoned}) != events ({self._offered},"
                f"{self._admitted},{self._rejected},{self._abandoned})",
            )

    def _check_ledger(self) -> None:
        if self.controller is None:
            return
        ledger = self.controller.ledger
        balance = self._acquired - self._released
        if balance != ledger.total_inflight:
            self._violate(
                "ledger-balance",
                f"acquires-releases={balance} != " f"inflight={ledger.total_inflight}",
            )
        for site, (inflight, slots, _down) in ledger.snapshot().items():
            if not 0 <= inflight <= slots:
                self._violate(
                    "ledger-bounds",
                    f"site {site} inflight={inflight} outside [0, {slots}]",
                )

    def _check_sessions(self) -> None:
        running = set(self.driver.active)
        expected = self._started - self._finished
        lost = expected - running
        ghosts = running - expected
        if lost:
            self._violate(
                "no-session-lost",
                f"started-but-gone without a finish event: {sorted(lost)}",
            )
        if ghosts:
            self._violate(
                "no-session-lost",
                f"running but never started/already finished: " f"{sorted(ghosts)}",
            )

    def _check_placement(self) -> None:
        n_sites = len(self.driver.sites)
        for name in self.driver.active:
            site = self.driver.site_of.get(name)
            if site is None:
                self._violate("single-placement", f"running session {name!r} has no site")
            elif not 0 <= site < n_sites:
                self._violate(
                    "single-placement",
                    f"session {name!r} placed on unknown site {site}",
                )

    def _check_registry(self) -> None:
        shards = self.driver.shards
        n = len(shards)
        seen: dict[str, int] = {}
        for idx, shard in enumerate(shards):
            for handle in shard:
                if handle in seen:
                    self._violate(
                        "one-shard-per-handle",
                        f"{handle} in shards {seen[handle]} and {idx}",
                    )
                    continue
                seen[handle] = idx
                routed = shard_index(handle, n)
                if routed != idx:
                    self._violate(
                        "shard-routing",
                        f"{handle} lives in shard {idx} but routes to " f"{routed} of {n}",
                    )
        for site in self.driver.sites:
            registry = site.registry
            if len(registry.shards) != n:
                self._violate(
                    "front-end-shards",
                    f"site {site.index} front-end sees "
                    f"{len(registry.shards)} shards, fleet has {n}",
                )
        if self.driver.sites and seen:
            front = self.driver.sites[0].registry
            for handle in seen:
                try:
                    front.lookup(handle)
                except OgsaError:
                    self._violate(
                        "handles-resolve",
                        f"{handle} published but lookup misses it",
                    )

    def _check_telemetry(self) -> None:
        # Moments only: ``n`` comes from the Welford fold, and a sweep
        # runs hundreds of times per world.  A *merge* against a *sum* —
        # comparing the sum with itself would check nothing.
        telemetry = self.driver.telemetry
        for attr in _PROBES:
            self._lossless(attr, telemetry.merged_stats(attr).n, "n")

    def _check_reservoirs(self) -> None:
        # The other half of the merge, once per world (final_check).
        telemetry = self.driver.telemetry
        for attr in _PROBES:
            merged = getattr(telemetry, f"merged_{attr}")()
            self._lossless(attr, merged.sample.n, "reservoir n")

    def _lossless(self, attr: str, merged: int, what: str) -> None:
        sessions = self.driver.telemetry.sessions.values()
        total = sum(getattr(t, attr).n for t in sessions)
        if merged != total:
            self._violate(
                "telemetry-lossless",
                f"merged {attr} {what}={merged} != per-session sum {total}",
            )

    # -- end of run --------------------------------------------------------

    def final_check(self, report=None) -> None:
        """Quiescence + one last sweep, after the world has drained."""
        self.sweep()
        self._check_reservoirs()
        if self.driver.active:
            self._violate(
                "quiescence",
                f"sessions still running at the end: " f"{sorted(self.driver.active)}",
            )
        if self.controller is not None:
            if self.controller.queue_depth != 0:
                self._violate(
                    "quiescence",
                    f"{self.controller.queue_depth} sessions still queued",
                )
            ledger = self.controller.ledger
            if ledger.total_inflight != 0:
                self._violate(
                    "quiescence",
                    f"ledger still holds {ledger.total_inflight} slots",
                )
        if self._started != self._finished:
            self._violate(
                "quiescence",
                f"{len(self._started - self._finished)} sessions started " "but never finished",
            )
        if report is not None:
            totals = self.driver.telemetry.totals()
            if report.n_sessions != totals["sessions"]:
                self._violate(
                    "report-consistency",
                    f"report says {report.n_sessions} sessions, telemetry "
                    f"has {totals['sessions']}",
                )
            if report.completed + report.failed > report.n_sessions:
                self._violate(
                    "report-consistency",
                    f"completed {report.completed} + failed {report.failed} "
                    f"> sessions {report.n_sessions}",
                )
            q = report.queue
            if q is not None and q.offered != (q.admitted + q.rejected + q.abandoned):
                self._violate(
                    "report-consistency",
                    f"queue slice offered={q.offered} != admitted+rejected+"
                    f"abandoned={q.admitted + q.rejected + q.abandoned}",
                )

    # -- the verdict -------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_ok(self) -> None:
        if self.violations:
            raise ChaosError(
                f"{len(self.violations)} invariant violation(s):\n" + "\n".join(self.violations)
            )

    def render(self) -> str:
        if self.ok:
            return (
                f"invariants: OK ({self.sweeps} sweeps, " f"{len(self._started)} sessions watched)"
            )
        return (
            f"invariants: {len(self.violations)} VIOLATION(S)\n"
            + "\n".join(f"  {v}" for v in self.violations)
        )
