"""Structured fleet reports: what a scaling run hands to benches and CI.

A :class:`FleetReport` freezes the interesting numbers out of a
:class:`~repro.fleet.telemetry.FleetTelemetry` — admission/steering
latency percentiles, throughput, completion counts — and renders them as
the paper-style fixed-width tables the benchmark suite already emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.fleet.telemetry import FleetTelemetry, QueueTelemetry


# The table formatters, shared with repro.campaign.matrix's reports.
def _ms(x: float) -> str:
    return "-" if math.isnan(x) else f"{x * 1e3:.1f}"


def _s(x: float) -> str:
    return "-" if math.isnan(x) else f"{x:.2f}"


@dataclass
class QueueSlice:
    """Frozen open-loop queueing numbers (admission waits in virtual
    seconds — queueing delay dominates network latency by orders of
    magnitude, so these are not millisecond quantities)."""

    offered: int
    admitted: int
    rejected: int
    abandoned: int
    slo_met: int
    requeued: int
    wait_p50: float
    wait_p90: float
    wait_p99: float
    wait_mean: float
    depth_mean: float
    depth_max: int
    scale_ups: int
    scale_downs: int
    by_class: dict = field(default_factory=dict)

    @classmethod
    def from_queue(cls, q: QueueTelemetry, now: float) -> "QueueSlice":
        q.finalize(now)
        by_class = {}
        for name, c in sorted(q.by_class.items()):
            by_class[name] = {
                "offered": c["offered"],
                "admitted": c["admitted"],
                "rejected": c["rejected"],
                "abandoned": c["abandoned"],
                "slo_met": c["slo_met"],
                "requeued": c["requeued"],
                "wait_p90_s": c["wait"].percentile(90),
            }
        return cls(
            offered=q.offered,
            admitted=q.admitted,
            rejected=q.rejected,
            abandoned=q.abandoned,
            slo_met=q.slo_met,
            requeued=q.requeued,
            wait_p50=q.wait.percentile(50),
            wait_p90=q.wait.percentile(90),
            wait_p99=q.wait.percentile(99),
            wait_mean=q.wait.mean,
            depth_mean=q.depth_mean,
            depth_max=q.depth_max,
            scale_ups=q.scale_ups,
            scale_downs=q.scale_downs,
            by_class=by_class,
        )

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def abandonment_rate(self) -> float:
        return self.abandoned / self.offered if self.offered else 0.0

    @property
    def slo_attainment(self) -> float:
        return self.slo_met / self.admitted if self.admitted else math.nan

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "abandoned": self.abandoned,
            "slo_met": self.slo_met,
            "requeued": self.requeued,
            "rejection_rate": self.rejection_rate,
            "abandonment_rate": self.abandonment_rate,
            "wait_p50_s": self.wait_p50,
            "wait_p90_s": self.wait_p90,
            "wait_p99_s": self.wait_p99,
            "wait_mean_s": self.wait_mean,
            "depth_mean": self.depth_mean,
            "depth_max": self.depth_max,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "by_class": self.by_class,
        }

    def render(self) -> str:
        lines = [
            f"admission: {self.admitted}/{self.offered} admitted, "
            f"{self.rejected} rejected ({self.rejection_rate:.0%}), "
            f"{self.abandoned} abandoned; queue depth "
            f"mean={self.depth_mean:.1f} max={self.depth_max}",
            f"admission wait s: p50={_s(self.wait_p50)} "
            f"p90={_s(self.wait_p90)} p99={_s(self.wait_p99)} "
            f"mean={_s(self.wait_mean)}   "
            f"slo attainment={self.slo_attainment:.0%}"
            if self.admitted
            else "admission wait s: (nothing admitted)",
        ]
        if self.scale_ups or self.scale_downs:
            lines.append(
                f"autoscale: +{self.scale_ups} sites grown, " f"-{self.scale_downs} drained"
            )
        if self.requeued:
            lines.append(f"recovery: {self.requeued} sessions requeued")
        return "\n".join(lines)


@dataclass
class SessionRow:
    name: str
    sim: str
    profile: str
    completed: bool
    ops: int
    timeouts: int
    errors: int
    steer_p50: float
    steer_p90: float
    session_time: float
    failure: Optional[str] = None


@dataclass
class FleetReport:
    """Aggregated outcome of one fleet run."""

    n_sessions: int
    completed: int
    failed: int
    ops: int
    timeouts: int
    errors: int
    steer_p50: float
    steer_p90: float
    steer_p99: float
    steer_mean: float
    find_p50: float
    admit_p50: float
    admit_p90: float
    makespan: float
    wall_seconds: Optional[float] = None
    per_session: list[SessionRow] = field(default_factory=list)
    #: open-loop queueing slice; None for closed-batch runs
    queue: Optional[QueueSlice] = None

    @classmethod
    def from_telemetry(
        cls,
        telemetry: FleetTelemetry,
        makespan: float,
        wall_seconds: Optional[float] = None,
        specs: Optional[dict] = None,
    ) -> "FleetReport":
        """Freeze a report; ``specs`` maps session name -> ScenarioSpec
        (for sim/profile labels in the per-session rows)."""
        steer = telemetry.merged_steer_latency()
        find = telemetry.merged_find_latency()
        admit = telemetry.merged_admit_latency()
        totals = telemetry.totals()
        rows = []
        for name, tel in sorted(telemetry.sessions.items()):
            spec = (specs or {}).get(name)
            rows.append(
                SessionRow(
                    name=name,
                    sim=spec.sim if spec else "?",
                    profile=spec.profile if spec else "?",
                    completed=tel.completed,
                    ops=tel.ops,
                    timeouts=tel.timeouts,
                    errors=tel.errors,
                    steer_p50=tel.steer_latency.percentile(50),
                    steer_p90=tel.steer_latency.percentile(90),
                    session_time=tel.session_time,
                    failure=tel.failure,
                )
            )
        return cls(
            n_sessions=totals["sessions"],
            completed=totals["completed"],
            failed=totals["failed"],
            ops=totals["ops"],
            timeouts=totals["timeouts"],
            errors=totals["errors"],
            steer_p50=steer.percentile(50),
            steer_p90=steer.percentile(90),
            steer_p99=steer.percentile(99),
            steer_mean=steer.mean,
            find_p50=find.percentile(50),
            admit_p50=admit.percentile(50),
            admit_p90=admit.percentile(90),
            makespan=makespan,
            wall_seconds=wall_seconds,
            per_session=rows,
            queue=(
                QueueSlice.from_queue(telemetry.queue, now=makespan)
                if telemetry.queue is not None
                else None
            ),
        )

    # -- views -------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "sessions": self.n_sessions,
            "completed": self.completed,
            "failed": self.failed,
            "ops": self.ops,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "steer_p50_ms": self.steer_p50 * 1e3,
            "steer_p90_ms": self.steer_p90 * 1e3,
            "steer_p99_ms": self.steer_p99 * 1e3,
            "steer_mean_ms": self.steer_mean * 1e3,
            "find_p50_ms": self.find_p50 * 1e3,
            "admit_p50_ms": self.admit_p50 * 1e3,
            "admit_p90_ms": self.admit_p90 * 1e3,
            "makespan_s": self.makespan,
            "wall_seconds": self.wall_seconds,
            **({"load": self.queue.to_dict()} if self.queue else {}),
        }

    def render(self, per_session: bool = False) -> str:
        lines = [
            f"fleet: {self.completed}/{self.n_sessions} sessions completed, "
            f"{self.ops} steering ops "
            f"({self.timeouts} timeouts, {self.errors} errors), "
            f"virtual makespan {self.makespan:.1f}s"
            + (
                f", wall {self.wall_seconds:.2f}s"
                if self.wall_seconds is not None
                else ""
            ),
            f"steer latency ms: p50={_ms(self.steer_p50)} "
            f"p90={_ms(self.steer_p90)} p99={_ms(self.steer_p99)} "
            f"mean={_ms(self.steer_mean)}",
            f"admission ms: p50={_ms(self.admit_p50)} p90={_ms(self.admit_p90)}"
            f"   registry find ms: p50={_ms(self.find_p50)}",
        ]
        if self.queue is not None:
            lines.append(self.queue.render())
        if per_session:
            lines.append(
                f"{'session':<18} {'sim':<9} {'profile':<17} {'ok':<3} "
                f"{'ops':>4} {'p50ms':>7} {'p90ms':>7} {'dur s':>6}"
            )
            for row in self.per_session:
                lines.append(
                    f"{row.name:<18} {row.sim:<9} {row.profile:<17} "
                    f"{'yes' if row.completed else 'NO':<3} {row.ops:>4} "
                    f"{_ms(row.steer_p50):>7} {_ms(row.steer_p90):>7} "
                    f"{row.session_time:>6.1f}"
                    + (f"  ! {row.failure}" if row.failure else "")
                )
        return "\n".join(lines)
