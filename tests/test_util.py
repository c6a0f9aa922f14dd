"""Tests for the util package: ids and stats."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import IdAllocator, RunningStats, percentile


def test_id_allocator_sequence_and_isolation():
    a = IdAllocator("job")
    b = IdAllocator("job")
    assert a.next() == "job-1"
    assert a.next() == "job-2"
    assert b.next() == "job-1"  # independent namespaces


def test_running_stats_known_values():
    s = RunningStats()
    for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
        s.add(x)
    assert s.n == 8
    assert s.mean == pytest.approx(5.0)
    assert math.sqrt(s.state()["m2"] / (s.n - 1)) == pytest.approx(2.138, rel=0.01)
    assert s.min == 2.0 and s.max == 9.0


def test_running_stats_empty_and_single():
    s = RunningStats()
    assert math.isnan(s.mean)
    s.add(3.0)
    assert s.mean == 3.0 and s.state()["m2"] == 0.0


@settings(max_examples=50, deadline=None)
@given(xs=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
def test_property_running_stats_matches_batch(xs):
    s = RunningStats()
    for x in xs:
        s.add(x)
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
    assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
    assert s.state()["m2"] / (len(xs) - 1) == pytest.approx(var, rel=1e-6, abs=1e-6)


def test_percentile():
    data = [1, 2, 3, 4, 5]
    assert percentile(data, 0) == 1
    assert percentile(data, 50) == 3
    assert percentile(data, 100) == 5
    assert percentile(data, 25) == 2
    assert percentile([7], 99) == 7
    with pytest.raises(ValueError):
        percentile([], 50)
