"""repro.load: open-loop traffic, admission control and elastic capacity.

PR 1's :mod:`repro.fleet` ran a *closed* batch of pre-declared sessions.
This package asks the production question on top of the same fabric —
what happens when sessions **arrive** rather than being scheduled:

* :mod:`repro.load.arrivals` — seeded arrival processes (Poisson,
  diurnal sinusoid, flash crowd, trace replay) minting
  :class:`~repro.fleet.spec.ScenarioSpec`s over virtual time;
* :mod:`repro.load.capacity` — per-site capacity models (gateway queue
  slots, container load, vbroker occupancy) and the
  :class:`CapacityLedger` of in-flight sessions;
* :mod:`repro.load.admission` — the :class:`AdmissionController`: a
  bounded priority-FIFO queue with per-class SLOs, caller abandonment
  and explicit reject-on-full backpressure, dispatching into
  :meth:`~repro.fleet.driver.FleetDriver.admit`;
* :mod:`repro.load.placement` — pluggable site-selection policies
  (least-loaded, power-of-two-choices);
* :mod:`repro.load.autoscale` — the :class:`ReactiveAutoscaler` growing
  and draining service sites (and registry shards) on queue depth;
* :mod:`repro.load.slo` — SLO classes, goodput accounting and the
  end-of-run :class:`SloScorecard`.

The quickest way in::

    driver = FleetDriver(n_sites=2, queue_slots=3)
    ctl = AdmissionController(driver, queue_limit=16)
    ReactiveAutoscaler(ctl, max_sites=5)
    report = ctl.run(PoissonArrivals(rate=1.0, horizon=30.0, seed=7))
"""

from repro.load.arrivals import (
    ARRIVAL_TUNABLES,
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    RecordedArrivals,
    TraceArrivals,
)
from repro.load.capacity import CapacityLedger, SiteCapacity, capacity_of
from repro.load.placement import (
    LeastLoaded,
    PlacementPolicy,
    PowerOfTwoChoices,
    make_policy,
)
from repro.load.slo import (
    BATCH,
    INTERACTIVE,
    SloClass,
    SloScorecard,
    classify,
    scorecard,
)
from repro.load.admission import AdmissionController
from repro.load.autoscale import ReactiveAutoscaler

__all__ = [
    "ARRIVAL_TUNABLES",
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "TraceArrivals",
    "RecordedArrivals",
    "SiteCapacity",
    "capacity_of",
    "CapacityLedger",
    "PlacementPolicy",
    "LeastLoaded",
    "PowerOfTwoChoices",
    "make_policy",
    "SloClass",
    "INTERACTIVE",
    "BATCH",
    "classify",
    "SloScorecard",
    "scorecard",
    "AdmissionController",
    "ReactiveAutoscaler",
]
