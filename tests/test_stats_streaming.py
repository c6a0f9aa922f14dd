"""Mergeable/streaming statistics (the substrate of fleet telemetry).

Covers RunningStats.merge (exactness + associativity), the P² streaming
quantile estimator, and the mergeable reservoir sample.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import P2Quantile, ReservoirSample, RunningStats, percentile


def _fill(acc, xs):
    for x in xs:
        acc.add(x)
    return acc


def _stats_of(xs):
    return _fill(RunningStats(), xs)


def _assert_stats_equal(a: RunningStats, b: RunningStats):
    assert a.n == b.n
    assert a.mean == pytest.approx(b.mean, rel=1e-12, abs=1e-12, nan_ok=True)
    assert a.state()["m2"] == pytest.approx(b.state()["m2"], rel=1e-9, abs=1e-12)
    assert a.min == b.min
    assert a.max == b.max


def test_merge_matches_concatenated_stream():
    xs = [1.0, 4.0, 2.0, 8.0]
    ys = [3.0, -1.0, 7.0]
    merged = _stats_of(xs).merge(_stats_of(ys))
    _assert_stats_equal(merged, _stats_of(xs + ys))


def test_merge_with_empty_is_identity_both_ways():
    xs = [2.0, 5.0, 11.0]
    left = _stats_of(xs).merge(RunningStats())
    _assert_stats_equal(left, _stats_of(xs))
    right = RunningStats().merge(_stats_of(xs))
    _assert_stats_equal(right, _stats_of(xs))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), max_size=30),
    st.lists(st.floats(-1e6, 1e6), max_size=30),
    st.lists(st.floats(-1e6, 1e6), max_size=30),
)
def test_property_merge_associative_and_exact(xs, ys, zs):
    # (x + y) + z  ==  x + (y + z)  ==  stats of the concatenation.
    ab_c = _stats_of(xs).merge(_stats_of(ys)).merge(_stats_of(zs))
    bc = _stats_of(ys).merge(_stats_of(zs))
    a_bc = _stats_of(xs).merge(bc)
    whole = _stats_of(xs + ys + zs)
    _assert_stats_equal(ab_c, whole)
    _assert_stats_equal(a_bc, whole)


def test_p2_quantile_rejects_bad_q():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


def test_p2_quantile_small_streams_are_exact():
    est = P2Quantile(0.5)
    assert math.isnan(est.value)
    for x in (5.0, 1.0, 3.0):
        est.add(x)
    assert est.value == percentile([5.0, 1.0, 3.0], 50)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_p2_quantile_accuracy_uniform(q):
    rng = random.Random(42)
    est = P2Quantile(q)
    xs = [rng.random() for _ in range(5000)]
    for x in xs:
        est.add(x)
    exact = percentile(xs, q * 100)
    assert est.value == pytest.approx(exact, abs=0.03)


def test_p2_quantile_accuracy_heavy_tail():
    rng = random.Random(7)
    est = P2Quantile(0.9)
    xs = [rng.expovariate(1.0) for _ in range(8000)]
    for x in xs:
        est.add(x)
    exact = percentile(xs, 90)
    assert est.value == pytest.approx(exact, rel=0.1)


def test_reservoir_keeps_everything_under_capacity():
    res = ReservoirSample(capacity=16, seed=3)
    _fill(res, range(10))
    assert res.n == 10 and len(res._items) == 10
    assert res.percentile(0) == 0.0
    assert res.percentile(100) == 9.0


def test_reservoir_empty_percentile_raises():
    with pytest.raises(ValueError):
        ReservoirSample(capacity=4).percentile(50)
    with pytest.raises(ValueError):
        ReservoirSample(capacity=0)


def test_reservoir_percentile_accuracy_over_capacity():
    res = ReservoirSample(capacity=512, seed=11)
    xs = list(range(20000))
    _fill(res, xs)
    assert res.n == 20000 and len(res._items) == 512
    assert res.percentile(50) == pytest.approx(10000, rel=0.15)
    assert res.percentile(90) == pytest.approx(18000, rel=0.15)


def test_reservoir_merge_tracks_combined_distribution():
    # Two disjoint streams; the union's median sits between them.
    a = ReservoirSample(capacity=256, seed=1)
    b = ReservoirSample(capacity=256, seed=2)
    _fill(a, [0.0] * 3000)
    _fill(b, [1.0] * 1000)
    a.merge(b)
    assert a.n == 4000
    # ~25% of the mass is 1.0, so p50 is 0 and p90 is 1.
    assert a.percentile(50) == 0.0
    assert a.percentile(95) == 1.0
    frac_ones = sum(1 for x in a._items if x == 1.0) / len(a._items)
    assert 0.1 < frac_ones < 0.45


def test_reservoir_merge_into_empty_respects_capacity():
    big = ReservoirSample(capacity=256, seed=4)
    _fill(big, range(1000))
    small = ReservoirSample(capacity=8, seed=5)
    small.merge(big)
    assert small.n == 1000
    assert len(small._items) == 8  # the fixed-size invariant survives the merge
    small.add(123.0)  # and later adds still sample uniformly
    assert len(small._items) == 8


def test_reservoir_merge_with_empty_and_into_empty():
    a = ReservoirSample(capacity=8, seed=5)
    _fill(a, [1.0, 2.0])
    a.merge(ReservoirSample(capacity=8))
    assert a.n == 2 and len(a._items) == 2
    c = ReservoirSample(capacity=8, seed=6)
    c.merge(a)
    assert c.n == 2 and sorted(c._items) == [1.0, 2.0]
