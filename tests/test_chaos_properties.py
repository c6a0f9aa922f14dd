"""Property-based seeded chaos: random fault schedules x arrival traces.

The two properties the chaos layer stakes its name on:

1. **Invariants hold under arbitrary seeded chaos** — whatever the
   random fault schedule and arrival trace, the InvariantMonitor
   reports zero conservation-law violations.  Recovery is allowed to
   *lose the fight* (sessions may abandon when every site is down); it
   is never allowed to lose *track*.
2. **Same seed, same world, byte-for-byte** — a rerun with identical
   seeds produces an identical FleetReport, injector log and recovery
   summary, so every chaos scenario doubles as a regression test.

The fleet runs are full middleware stacks (UNICORE consignment, OGSA
deploy, registry publish per session), so example counts are kept small
and the fabric lean — the cheap thousands-of-cases style fuzzing lives
in the DES/property suites below this layer.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosHarness, FaultSchedule
from repro.fleet import FleetDriver
from repro.load import AdmissionController, PoissonArrivals


def _chaos_run(fault_seed: int, arrival_seed: int, n_faults: int):
    driver = FleetDriver(n_sites=2, queue_slots=2)
    ctl = AdmissionController(driver, queue_limit=8)
    world = ChaosHarness(driver, ctl)
    pairs = [
        (driver.sites[0].hpc_name, driver.sites[0].svc_name),
        (driver.sites[0].svc_name, driver.sites[1].svc_name),
    ]
    schedule = FaultSchedule.random(
        seed=fault_seed,
        horizon=10.0,
        n_faults=n_faults,
        sites=len(driver.sites),
        shards=len(driver.shards),
        hosts=tuple(s.hpc_name for s in driver.sites),
        host_pairs=tuple(pairs),
    )
    world.install(schedule)
    arrivals = PoissonArrivals(
        rate=0.8, horizon=8.0, seed=arrival_seed,
        duration=2.0, cadence=0.5, participants=1,
    )
    # Generous drain: every queued/requeued session must either admit
    # and finish or hit its patience — quiescence is part of the check.
    report = ctl.run(arrivals, until=200.0)
    verdict = world.verdict(report)
    return report, verdict, schedule


@settings(max_examples=10, deadline=None)
@given(
    fault_seed=st.integers(0, 10_000),
    arrival_seed=st.integers(0, 10_000),
    n_faults=st.integers(1, 4),
)
def test_property_random_chaos_never_breaks_invariants(
    fault_seed, arrival_seed, n_faults
):
    report, verdict, schedule = _chaos_run(fault_seed, arrival_seed, n_faults)
    assert verdict["invariant_violations"] == 0, "\n".join(
        verdict["violations"] + [fault.describe() for fault in schedule]
    )
    # Conservation at the report level too: every offer is accounted.
    q = report.queue
    assert q.offered == q.admitted + q.rejected + q.abandoned
    # Nothing stayed stuck: admitted sessions all reached a terminal
    # telemetry state.
    assert report.completed + report.failed == report.n_sessions


@settings(max_examples=5, deadline=None)
@given(
    fault_seed=st.integers(0, 10_000),
    arrival_seed=st.integers(0, 10_000),
)
def test_property_same_seed_reproduces_byte_for_byte(
    fault_seed, arrival_seed
):
    def blob():
        report, verdict, schedule = _chaos_run(fault_seed, arrival_seed, 3)
        return json.dumps(
            {
                "report": report.to_dict(),
                "verdict": verdict,
                "schedule": [fault.describe() for fault in schedule],
            },
            sort_keys=True,
        )

    assert blob() == blob()


def test_random_schedules_differ_across_seeds():
    """The generator actually explores the taxonomy (sanity on top of
    the per-kind exclusion logic)."""
    kinds = set()
    for seed in range(12):
        schedule = FaultSchedule.random(
            seed=seed, horizon=20.0, n_faults=4, sites=2, shards=2,
            brokers=2, hosts=("h",), host_pairs=(("h", "g"),),
        )
        kinds.update(f.kind for f in schedule)
    assert len(kinds) >= 6
