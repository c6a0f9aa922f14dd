"""The parked steering pump is the polling pump, minus the empty polls.

Whole fleets run twice — ``SteeringService`` pumps polling (the body
kept in ``tests/reference_pump.py``) and parked — and every reported
byte must agree: parking may drop events, never move one.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_pump import polling_steering_pumps

from repro.fleet import FleetDriver, ScenarioSpec, fleet_of
from repro.fleet.spec import SIM_KINDS

PROFILES = ("campus", "superjanet", "conference-floor")


def _report(specs, n_sites):
    driver = FleetDriver(specs, n_sites=n_sites)
    report = driver.run(wall_seconds=None)
    return json.dumps(report.to_dict(), sort_keys=True), driver.env.events_processed


def _both(n, pairs, stagger, n_sites, cadence, compute_time, duration=3.0):
    suite = [
        ScenarioSpec(name=f"{sim}-{profile}", sim=sim, profile=profile, cadence=cadence,
                     compute_time=compute_time, duration=duration, seed=i)
        for i, (sim, profile) in enumerate(pairs)
    ]
    specs = fleet_of(n, suite=suite, stagger=stagger)
    with polling_steering_pumps():
        polled = _report(specs, n_sites)
    return polled, _report(specs, n_sites)


def test_fleet_that_defeats_simpler_wake_orders():
    # Eight LB3D sessions whose 0.01 s poll grids merge mid-run: waking
    # each pump on a timeout of its own (order = arrival order) breaks
    # the goldens, and ordering wakes by park ordinal alone passes every
    # golden yet swaps steer-s0006 and steer-s0001 at t = 2.1005628…,
    # one tick after their grids met.
    (polled, polled_events), (parked, parked_events) = _both(
        8, [("lb3d", "superjanet")], stagger=0.2, n_sites=1, cadence=0.2,
        compute_time=0.1, duration=6.0,
    )
    assert parked == polled
    assert parked_events < polled_events * 0.6


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(4, 16),
    pairs=st.lists(
        st.tuples(st.sampled_from(SIM_KINDS), st.sampled_from(PROFILES)),
        min_size=1, max_size=4,
    ),
    stagger=st.sampled_from([0, 0.01, 0.05, 0.1, 0.2, 0.37]),
    n_sites=st.sampled_from([1, 2, 4]),
    cadence=st.floats(0.05, 0.5).map(lambda x: round(x, 3)),
    compute_time=st.floats(0.02, 0.1).map(lambda x: round(x, 3)),
)
def test_random_fleets_report_identical_bytes(n, pairs, stagger, n_sites, cadence, compute_time):
    polled, parked = _both(n, pairs, stagger, n_sites, cadence, compute_time)
    assert parked[0] == polled[0]
    assert parked[1] < polled[1]
