"""Fleet telemetry: mergeable probes and aggregate bookkeeping."""

import math

import pytest

from repro.fleet import FleetTelemetry, LatencyProbe
from repro.fleet.report import FleetReport


def test_latency_probe_records_and_estimates():
    probe = LatencyProbe(reservoir=64, seed=1)
    assert math.isnan(probe.percentile(50))
    for i in range(100):
        probe.add(i / 100.0)
    assert probe.n == 100
    assert probe.mean == pytest.approx(0.495)
    assert probe.percentile(50) == pytest.approx(0.5, abs=0.1)


def test_probe_merge_matches_union_stream():
    a, b = LatencyProbe(seed=1), LatencyProbe(seed=2)
    for i in range(50):
        a.add(0.01)
        b.add(0.10)
    a.merge(b)
    assert a.n == 100
    assert a.mean == pytest.approx(0.055)
    assert a.percentile(5) == pytest.approx(0.01)
    assert a.percentile(95) == pytest.approx(0.10)


def test_fleet_aggregates_merge_sessions_exactly():
    fleet = FleetTelemetry()
    s1 = fleet.session("one")
    s2 = fleet.session("two")
    assert fleet.session("one") is s1  # get-or-create
    for _ in range(10):
        s1.record_op("ok", 0.020)
        s2.record_op("ok", 0.200)
    s1.record_op("timeout", 30.0)
    s2.record_op("error")
    s1.mark_completed(now=12.0)
    s2.mark_failed("gateway down", now=9.0)
    merged = fleet.merged_steer_latency()
    assert merged.n == 20
    assert merged.mean == pytest.approx(0.110)
    totals = fleet.totals()
    assert totals == {
        "sessions": 2, "completed": 1, "failed": 1,
        "ops": 20, "timeouts": 1, "errors": 1,
    }


def test_session_lifecycle_times():
    fleet = FleetTelemetry()
    tel = fleet.session("s")
    assert math.isnan(tel.session_time)
    tel.record_admission(started=1.0, now=1.4)
    tel.mark_completed(now=7.4)
    assert tel.admitted_at == 1.4
    assert tel.session_time == pytest.approx(6.0)
    assert tel.admit_latency.mean == pytest.approx(0.4)


def test_report_from_empty_fleet_renders():
    report = FleetReport.from_telemetry(FleetTelemetry(), makespan=0.0)
    assert report.n_sessions == 0
    text = report.render()
    assert "0/0 sessions" in text and "p50=-" in text
