"""The exposition agrees with the fleet's telemetry ledger, as a property.

Every session event is counted once, in :mod:`repro.fleet.telemetry`,
and ``GET /metricsz`` reads it from there.  Hypothesis draws small
worlds -- batch or open-loop, one to three participants per session
(the master plus its collaborators), with no fault, a container crash
or a site outage -- and checks the rendered exposition against the
report: per-outcome ``repro_steer_ops_total`` equals the report's ops,
timeouts and errors, the steer histogram counts the ok ops, the find
histogram counts the find samples, and on an open-loop world the
admission-wait histogram counts the admitted sessions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosHarness, ContainerCrash, FaultSchedule, SiteOutage
from repro.fleet import FleetDriver, fleet_of
from repro.load import AdmissionController, PoissonArrivals
from repro.obs import Observability

FAULTS = {
    "none": lambda at, site: [],
    "crash": lambda at, site: [ContainerCrash(at=at, duration=2.0, site=site)],
    "outage": lambda at, site: [SiteOutage(at=at, duration=2.0, site=site)],
}


def _samples(text: str) -> dict:
    """``name{labels}`` -> value, for every sample line of an exposition."""
    samples = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            sample, _, value = line.rpartition(" ")
            samples[sample] = float(value)
    return samples


def _world(open_loop, participants, fault, at, site, seed):
    obs = Observability(metrics=True)
    overrides = dict(participants=participants, duration=3.0, cadence=0.5)
    if open_loop:
        driver = FleetDriver(n_sites=2, queue_slots=2, obs=obs)
        ctl = AdmissionController(driver, queue_limit=4)
    else:
        driver = FleetDriver(fleet_of(4, stagger=0.4, **overrides), n_sites=2, obs=obs)
        ctl = None
    ChaosHarness(driver, ctl).install(FaultSchedule(FAULTS[fault](at, site)))
    if open_loop:
        arrivals = PoissonArrivals(rate=1.5, horizon=4.0, seed=seed, **overrides)
        report = ctl.run(arrivals, grace=30.0)
    else:
        report = driver.run(wall_seconds=None)
    return obs, driver, report


@settings(max_examples=25, deadline=None)
@given(
    open_loop=st.booleans(),
    participants=st.integers(1, 3),
    fault=st.sampled_from(sorted(FAULTS)),
    at=st.sampled_from([0.5, 1.5, 2.5]),
    site=st.integers(0, 1),
    seed=st.integers(0, 3),
)
def test_exposition_counts_what_the_ledger_counts(open_loop, participants, fault, at, site,
                                                  seed):
    obs, driver, report = _world(open_loop, participants, fault, at, site, seed)
    got = _samples(obs.metrics.render())
    for outcome, total in (("ok", report.ops), ("timeout", report.timeouts),
                           ("error", report.errors)):
        assert got[f'repro_steer_ops_total{{outcome="{outcome}"}}'] == total, outcome
    assert got.get("repro_steer_latency_seconds_count", 0) == report.ops
    finds = driver.telemetry.merged_stats("find_latency").n
    assert got.get("repro_find_latency_seconds_count", 0) == finds
    if open_loop:
        admitted = driver.telemetry.queue.admitted
        assert got.get("repro_admission_wait_seconds_count", 0) == admitted


def test_collaborator_ops_and_errors_are_counted_once():
    """The two worlds the exposition used to under-count: a default
    fleet's collaborator polls, and the errors a container crash causes."""
    obs = Observability(metrics=True)
    report = FleetDriver(fleet_of(32), n_sites=4, obs=obs).run(wall_seconds=None)
    got = _samples(obs.metrics.render())
    assert report.ops == 320
    assert got['repro_steer_ops_total{outcome="ok"}'] == report.ops
    assert got["repro_steer_latency_seconds_count"] == report.ops

    obs = Observability(metrics=True)
    driver = FleetDriver(fleet_of(12), n_sites=2, obs=obs)
    ChaosHarness(driver).install(FaultSchedule([ContainerCrash(at=2.0, duration=3.0, site=1)]))
    report = driver.run(wall_seconds=None)
    assert report.errors == 8
    assert _samples(obs.metrics.render())['repro_steer_ops_total{outcome="error"}'] == 8
