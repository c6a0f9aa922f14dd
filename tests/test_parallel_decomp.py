"""Tests for the decomposition helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.parallel import (
    interleave_bits3,
    morton_key,
    morton_partition,
    slab_partition,
)


def test_slab_partition_even():
    assert slab_partition(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_slab_partition_remainder_goes_first():
    parts = slab_partition(10, 4)
    sizes = [b - a for a, b in parts]
    assert sizes == [3, 3, 2, 2]
    assert parts[-1][1] == 10


def test_slab_partition_more_parts_than_items():
    parts = slab_partition(2, 5)
    sizes = [b - a for a, b in parts]
    assert sizes == [1, 1, 0, 0, 0]


def test_slab_partition_invalid():
    with pytest.raises(SimulationError):
        slab_partition(5, 0)
    with pytest.raises(SimulationError):
        slab_partition(-1, 2)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 1000), parts=st.integers(1, 32))
def test_property_slab_partition_covers_exactly(n, parts):
    slabs = slab_partition(n, parts)
    assert len(slabs) == parts
    assert slabs[0][0] == 0 and slabs[-1][1] == n
    for (a0, a1), (b0, b1) in zip(slabs, slabs[1:]):
        assert a1 == b0  # contiguous, no gaps or overlaps
    sizes = [b - a for a, b in slabs]
    assert max(sizes) - min(sizes) <= 1  # balanced


def test_interleave_bits_known_values():
    # x=1, y=0, z=0 -> key 0b001 = 1 ; y=1 -> 0b010 = 2 ; z=1 -> 0b100 = 4
    x = np.array([1, 0, 0])
    y = np.array([0, 1, 0])
    z = np.array([0, 0, 1])
    np.testing.assert_array_equal(interleave_bits3(x, y, z, 1), [1, 2, 4])


def test_interleave_bits_multibit():
    # x=0b11, y=0, z=0 -> bits at positions 0 and 3 -> 0b1001 = 9
    key = interleave_bits3(np.array([3]), np.array([0]), np.array([0]), 2)
    assert key[0] == 9


def test_morton_key_locality():
    """Adjacent points share key prefixes more than distant points."""
    lo, hi = np.zeros(3), np.ones(3)
    pts = np.array([[0.1, 0.1, 0.1], [0.1001, 0.1, 0.1], [0.9, 0.9, 0.9]])
    keys = morton_key(pts, lo, hi, bits=16)
    assert abs(int(keys[0]) - int(keys[1])) < abs(int(keys[0]) - int(keys[2]))


def test_morton_key_validates_shape():
    with pytest.raises(SimulationError):
        morton_key(np.zeros((3, 2)), np.zeros(3), np.ones(3))


def test_morton_key_degenerate_box():
    with pytest.raises(SimulationError):
        morton_key(np.zeros((1, 3)), np.zeros(3), np.zeros(3))


def test_morton_partition_balance_and_cover():
    rng = np.random.default_rng(42)
    pts = rng.random((1000, 3))
    owner, lists = morton_partition(pts, 7, np.zeros(3), np.ones(3))
    assert sum(len(ix) for ix in lists) == 1000
    sizes = [len(ix) for ix in lists]
    assert max(sizes) - min(sizes) <= 1
    for r, idx in enumerate(lists):
        assert np.all(owner[idx] == r)


def test_morton_partition_spatial_locality():
    """Each rank's points should be more compact than the whole cloud."""
    rng = np.random.default_rng(1)
    pts = rng.random((2000, 3))
    _, lists = morton_partition(pts, 8, np.zeros(3), np.ones(3))
    whole = pts.std(axis=0).mean()
    per_rank = np.mean([pts[ix].std(axis=0).mean() for ix in lists])
    assert per_rank < whole

