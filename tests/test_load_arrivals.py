"""Arrival processes: determinism, rates, shapes, spec minting."""

import pytest

from repro.errors import LoadError
from repro.fleet.spec import ScenarioSpec
from repro.load import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    RecordedArrivals,
    TraceArrivals,
)


def test_poisson_is_deterministic_under_seed():
    a = list(PoissonArrivals(rate=1.0, horizon=50.0, seed=3))
    b = list(PoissonArrivals(rate=1.0, horizon=50.0, seed=3))
    assert [t for t, _ in a] == [t for t, _ in b]
    assert [s.name for _, s in a] == [s.name for _, s in b]
    c = list(PoissonArrivals(rate=1.0, horizon=50.0, seed=4))
    assert [t for t, _ in a] != [t for t, _ in c]


def test_poisson_rate_roughly_matches_lambda():
    proc = PoissonArrivals(rate=2.0, horizon=500.0, seed=11)
    # 1000 expected arrivals; 3-sigma band is ~±95.
    count = len(list(proc.times()))
    assert 900 <= count <= 1100
    assert count / proc.horizon == pytest.approx(2.0, rel=0.1)


def test_poisson_times_sorted_and_inside_horizon():
    times = [t for t, _ in PoissonArrivals(rate=3.0, horizon=20.0, seed=5)]
    assert times == sorted(times)
    assert all(0.0 < t < 20.0 for t in times)


def test_spec_minting_unique_names_and_zero_offset():
    arrivals = list(PoissonArrivals(rate=1.0, horizon=30.0, seed=2,
                                    duration=2.0, cadence=0.5))
    names = [s.name for _, s in arrivals]
    assert len(set(names)) == len(names)
    for _, spec in arrivals:
        assert spec.admission_offset == 0.0
        assert spec.duration == 2.0
        # Step budget re-derived from the overridden duration.
        assert spec.steps >= int(2.0 / spec.compute_time)


def test_custom_suite_cycles():
    suite = [ScenarioSpec(name="proto", sim="building", participants=1)]
    arrivals = list(PoissonArrivals(rate=1.0, horizon=10.0, seed=1,
                                    suite=suite, prefix="x"))
    assert arrivals, "expected at least one arrival in 10s at rate 1"
    assert all(s.sim == "building" for _, s in arrivals)
    assert arrivals[0][1].name.startswith("x00000-")


def test_diurnal_peak_carries_more_than_trough():
    proc = DiurnalArrivals(base_rate=0.2, amplitude=4.0, period=200.0,
                           horizon=200.0, seed=9)
    times = [t for t, _ in proc]
    # rate_at peaks at t=period/2; compare middle half vs outer halves.
    mid = sum(1 for t in times if 50.0 <= t < 150.0)
    outer = len(times) - mid
    assert mid > 2 * outer
    assert proc.rate_at(100.0) == pytest.approx(4.2)
    assert proc.rate_at(0.0) == pytest.approx(0.2)


def test_flash_crowd_burst_window_dominates():
    proc = FlashCrowdArrivals(base_rate=0.5, burst_rate=10.0, burst_at=20.0,
                              burst_duration=5.0, horizon=60.0, seed=13)
    times = [t for t, _ in proc]
    burst = sum(1 for t in times if 20.0 <= t < 25.0)
    before = sum(1 for t in times if t < 20.0)
    # ~50 expected in the 5s burst vs ~10 in the 20s before it.
    assert burst > before
    assert proc.rate_at(21.0) == 10.0 and proc.rate_at(30.0) == 0.5


def test_trace_replay_and_validation():
    trace = TraceArrivals([0.0, 1.5, 1.5, 4.0])
    got = list(trace)
    assert [t for t, _ in got] == [0.0, 1.5, 1.5, 4.0]
    assert len({s.name for _, s in got}) == 4
    with pytest.raises(LoadError):
        TraceArrivals([])
    with pytest.raises(LoadError):
        TraceArrivals([2.0, 1.0])
    with pytest.raises(LoadError):
        TraceArrivals([-1.0])
    # Explicit horizon truncates the tail.
    assert [t for t, _ in TraceArrivals([0.0, 5.0], horizon=3.0)] == [0.0]


def test_trace_errors_pinpoint_index_and_value():
    with pytest.raises(LoadError, match=r"\[1\] = 'two' is not a number"):
        TraceArrivals([1.0, "two", 3.0])
    with pytest.raises(LoadError, match=r"\[0\] = None is not a number"):
        TraceArrivals([None])
    with pytest.raises(LoadError, match=r"\[2\] = nan must be finite"):
        TraceArrivals([0.0, 1.0, float("nan")])
    with pytest.raises(LoadError, match=r"\[1\] = inf must be finite"):
        TraceArrivals([0.0, float("inf")])
    with pytest.raises(LoadError, match=r"\[0\] = -0\.5 must be non-negative"):
        TraceArrivals([-0.5, 1.0])
    with pytest.raises(
        LoadError, match=r"\[2\] = 1\.0 goes back in time \(instant \[1\] = 2\.0\)"
    ):
        TraceArrivals([0.0, 2.0, 1.0])
    # Integer-ish inputs are coerced, not rejected.
    assert list(TraceArrivals([0, 1, 2]).times()) == [0.0, 1.0, 2.0]


def _spec(name):
    return ScenarioSpec(name=name, sim="building", participants=1)


def test_recorded_arrivals_replay_exact_pairs():
    entries = [(0.5, _spec("a")), (1.5, _spec("b")), (1.5, _spec("c"))]
    proc = RecordedArrivals(entries)
    got = list(proc)
    assert got == entries
    assert proc.horizon == pytest.approx(1.5, abs=1e-6)
    # An explicit horizon truncates, exactly like TraceArrivals.
    assert [s.name for _, s in RecordedArrivals(entries, horizon=1.0)] == ["a"]


def test_recorded_arrivals_validation():
    with pytest.raises(LoadError, match="recorded arrival"):
        RecordedArrivals([])
    with pytest.raises(LoadError, match=r"recorded arrival instant \[1\] = 0\.5 goes back"):
        RecordedArrivals([(1.0, _spec("a")), (0.5, _spec("b"))])
    with pytest.raises(LoadError, match=r"\[1\] carries dict, not a ScenarioSpec"):
        RecordedArrivals([(0.0, _spec("a")), (1.0, {"name": "b"})])
    with pytest.raises(LoadError, match="repeat session name 'a'"):
        RecordedArrivals([(0.0, _spec("a")), (1.0, _spec("a"))])


def test_bad_configurations_raise():
    with pytest.raises(LoadError):
        PoissonArrivals(rate=0.0, horizon=10.0)
    with pytest.raises(LoadError):
        PoissonArrivals(rate=1.0, horizon=0.0)
    with pytest.raises(LoadError):
        DiurnalArrivals(base_rate=0.0, amplitude=0.0, period=10.0,
                        horizon=10.0)
    with pytest.raises(LoadError):
        FlashCrowdArrivals(base_rate=1.0, burst_rate=0.5, burst_at=0.0,
                           burst_duration=1.0, horizon=10.0)


def test_iteration_is_repeatable():
    proc = PoissonArrivals(rate=1.0, horizon=20.0, seed=8)
    assert [t for t, _ in proc] == [t for t, _ in proc]
    assert len(list(proc)) == len(list(proc.times()))
