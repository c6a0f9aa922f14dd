"""The optimized kernel must not change a single reported byte.

The PR-4 hot-path work (slotted events, timeout recycling, tombstoned
interrupts, parked viz pumps, stop-exiting steering pumps, bit-exact
roll kernels, cached wire sizes) is only admissible because same-seed
runs stay *byte-for-byte* identical to the seed behaviour.  The golden
files under ``tests/golden/`` were generated from the pre-optimization
tree; these tests fail on any drift — in latencies, counters, chaos
recovery verdicts or invariant results.
"""

import json
import pathlib

from repro.fleet import FleetDriver, fleet_of
from test_behaviour_table import COMPOUND, chaos_cell

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _fleet_report(n: int = 8):
    specs = fleet_of(n, stagger=0.2)
    driver = FleetDriver(specs, n_sites=4)
    report = driver.run(wall_seconds=None)
    return report, driver


def test_fleet_report_matches_seed_golden():
    report, _driver = _fleet_report()
    golden = json.loads((GOLDEN / "fleet_report_8.json").read_text())
    assert report.to_dict() == golden


def test_fleet_report_serialization_is_byte_identical():
    report, _driver = _fleet_report()
    ours = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    golden = (GOLDEN / "fleet_report_8.json").read_text().rstrip("\n")
    assert ours == golden


def test_same_seed_runs_are_identical():
    a, _ = _fleet_report()
    b, _ = _fleet_report()
    assert a.to_dict() == b.to_dict()


def test_chaos_cell_matches_seed_golden():
    # The compound outage+vbroker chaos cell: report, recovery verdict
    # and invariant results all pinned against the seed tree.
    report, verdict = chaos_cell(COMPOUND)
    golden = json.loads((GOLDEN / "chaos_outage_vbroker.json").read_text())
    assert report.to_dict() == golden["report"]
    assert verdict == golden["verdict"]
    assert verdict["invariant_violations"] == 0


def test_pumps_stop_burning_events_after_sessions_end():
    # The run deadline leaves ~45 virtual seconds of grace after the
    # last session; at 100 polls/sec/pump the seed kernel burned >9000
    # events per session on silence.  Both pumps park, so the count
    # follows the message traffic — and the session's own idle stretches
    # (the steerer between ops, the app between samples) cost nothing
    # either: 1 299 while the steering pump still polled, ~600 now.
    report, driver = _fleet_report(1)
    assert report.completed == 1
    assert driver.env.events_processed < 1000, driver.env.events_processed
