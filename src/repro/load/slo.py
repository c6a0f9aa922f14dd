"""SLO classes and goodput accounting for open-loop admission.

A session arrives belonging to a *class* that fixes how it queues: its
priority against other classes, how long the caller is willing to wait
before abandoning (``patience``), and the admission-wait SLO the grid is
judged against.  The scorecard at the end folds the per-class queueing
counters (kept in :class:`repro.fleet.telemetry.QueueTelemetry`) together
with session outcomes into a goodput number: sessions that were admitted
within their SLO *and* ran to completion, per virtual second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LoadError


@dataclass(frozen=True)
class SloClass:
    """One admission class: priority, patience and the wait SLO."""

    name: str
    #: lower fires first at the same instant (0 = most urgent)
    priority: int
    #: admission-wait SLO in virtual seconds
    wait_slo: float
    #: the caller gives up after queueing this long
    patience: float

    def __post_init__(self) -> None:
        if self.wait_slo <= 0 or self.patience <= 0:
            raise LoadError(f"class {self.name!r}: wait_slo and patience must be > 0")
        if self.patience < self.wait_slo:
            raise LoadError(
                f"class {self.name!r}: patience {self.patience} below the "
                f"wait SLO {self.wait_slo} means every SLO miss abandons "
                "before it can be counted — widen patience"
            )


#: a human waiting at a workstation to steer (the paper's live demo)
INTERACTIVE = SloClass("interactive", priority=0, wait_slo=3.0, patience=8.0)
#: an unattended parameter-sweep job; patient but low priority
BATCH = SloClass("batch", priority=1, wait_slo=12.0, patience=40.0)
#: fault-recovery requeues: already-admitted work displaced by an
#: outage jumps every arrival class and waits out capacity rebuilds
RETRY = SloClass("retry", priority=-1, wait_slo=30.0, patience=120.0)


def classify(spec) -> SloClass:
    """Default spec -> class mapping: collaborative sessions (several
    humans in AG venues) are interactive; single-participant runs queue
    as batch work."""
    return INTERACTIVE if spec.participants > 1 else BATCH


@dataclass
class SloScorecard:
    """End-of-run SLO verdict for an open-loop run."""

    offered: int
    admitted: int
    completed_in_slo: int
    horizon: float
    #: class name -> {offered, admitted, slo_met, attainment}
    by_class: dict

    @property
    def goodput(self) -> float:
        """Sessions completed within their admission SLO per virtual s."""
        if self.horizon <= 0:
            return math.nan
        return self.completed_in_slo / self.horizon

    def render(self) -> str:
        lines = [
            f"goodput: {self.completed_in_slo}/{self.offered} offered "
            f"sessions completed within SLO over {self.horizon:.0f}s "
            f"-> {self.goodput:.3f}/s"
        ]
        for name, row in sorted(self.by_class.items()):
            att = row["attainment"]
            lines.append(
                f"  class {name:<12} offered={row['offered']:>4} "
                f"admitted={row['admitted']:>4} slo_met={row['slo_met']:>4} "
                f"attainment={'-' if math.isnan(att) else f'{att:.0%}'}"
            )
        return "\n".join(lines)


def scorecard(controller, horizon: float) -> SloScorecard:
    """Build the scorecard from a finished AdmissionController run.

    ``completed_in_slo`` requires both halves: the admission wait met the
    class SLO *and* the session itself ran to completion (a session that
    was admitted on time but failed mid-run is not goodput).
    """
    tel = controller.driver.telemetry
    q = tel.queue
    if q is None:
        raise LoadError("scorecard needs an open-loop (queue) telemetry")
    completed_in_slo = 0
    for name, cls, met_slo in controller.admissions:
        session = tel.sessions.get(name)
        if met_slo and session is not None and session.completed:
            completed_in_slo += 1
    by_class = {}
    for cname, c in q.by_class.items():
        by_class[cname] = {
            "offered": c["offered"],
            "admitted": c["admitted"],
            "slo_met": c["slo_met"],
            "attainment": (
                c["slo_met"] / c["admitted"] if c["admitted"] else math.nan
            ),
        }
    return SloScorecard(
        offered=q.offered,
        admitted=q.admitted,
        completed_in_slo=completed_in_slo,
        horizon=horizon,
        by_class=by_class,
    )
