"""Isosurface and cutplane tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.viz import cut_plane, isosurface
from repro.viz.cutplane import trilinear_sample


def sphere_field(n=24, radius=0.35):
    """Distance field: negative inside a sphere centred in the unit box."""
    ax = np.linspace(0, 1, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2) - radius


def test_isosurface_sphere_area():
    n = 32
    field = sphere_field(n)
    spacing = (1.0 / (n - 1),) * 3
    verts, faces = isosurface(field, level=0.0, spacing=spacing)
    assert len(faces) > 0
    tri = verts[faces]
    cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    area = 0.5 * np.linalg.norm(cross, axis=1).sum()
    expected = 4.0 * np.pi * 0.35**2
    assert area == pytest.approx(expected, rel=0.15)


def test_isosurface_vertices_near_level():
    n = 24
    field = sphere_field(n)
    spacing = (1.0 / (n - 1),) * 3
    verts, _ = isosurface(field, level=0.0, spacing=spacing)
    r = np.linalg.norm(verts - 0.5, axis=1)
    # every vertex should sit on the sphere up to one cell size
    assert np.all(np.abs(r - 0.35) < 2.0 / n)


def test_isosurface_empty_when_level_outside_range():
    field = sphere_field(12)
    verts, faces = isosurface(field, level=10.0)
    assert len(verts) == 0 and len(faces) == 0


def test_isosurface_needs_3d():
    with pytest.raises(ReproError):
        isosurface(np.zeros((4, 4)), 0.0)


def test_isosurface_degenerate_grid():
    verts, faces = isosurface(np.zeros((1, 4, 4)), 0.5)
    assert len(verts) == 0


def test_isosurface_scales_with_resolution():
    small = isosurface(sphere_field(12), 0.0)[1]
    large = isosurface(sphere_field(32), 0.0)[1]
    assert len(large) > 3 * len(small)


def test_trilinear_sample_exact_at_nodes():
    rng = np.random.default_rng(0)
    field = rng.random((4, 5, 6))
    pts = np.array([[1, 2, 3], [0, 0, 0], [3, 4, 5]], dtype=float)
    out = trilinear_sample(field, pts)
    assert out[0] == pytest.approx(field[1, 2, 3])
    assert out[1] == pytest.approx(field[0, 0, 0])
    assert out[2] == pytest.approx(field[3, 4, 5])


def test_trilinear_sample_linear_field_is_exact():
    ax = np.arange(5, dtype=float)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    field = 2 * x + 3 * y - z
    pts = np.array([[0.5, 1.25, 3.75], [2.2, 0.1, 0.9]])
    expected = 2 * pts[:, 0] + 3 * pts[:, 1] - pts[:, 2]
    np.testing.assert_allclose(trilinear_sample(field, pts), expected, atol=1e-12)


def test_cut_plane_through_linear_field():
    ax = np.arange(8, dtype=float)
    x, _, _ = np.meshgrid(ax, ax, ax, indexing="ij")
    field = x.copy()
    # plane x = 3.5: all sampled values must be ~3.5 (within clamping at edges)
    coords, values = cut_plane(field, point=np.array([3.5, 3.5, 3.5]),
                               normal=np.array([1.0, 0, 0]), resolution=16)
    inside = np.all((coords >= 0) & (coords <= 7), axis=2)
    assert np.allclose(values[inside], 3.5, atol=1e-9)


def test_cut_plane_validation():
    field = np.zeros((4, 4, 4))
    with pytest.raises(ReproError):
        cut_plane(field, np.zeros(3), np.zeros(3))
    with pytest.raises(ReproError):
        cut_plane(field, np.zeros(3), np.array([1.0, 0, 0]), resolution=1)


@settings(max_examples=15, deadline=None)
@given(
    radius=st.floats(0.15, 0.45),
    level=st.floats(-0.05, 0.05),
)
def test_property_isosurface_vertices_on_level_set(radius, level):
    n = 20
    field = sphere_field(n, radius)
    verts, faces = isosurface(field, level=level, spacing=(1.0 / (n - 1),) * 3)
    if len(verts) == 0:
        return
    r = np.linalg.norm(verts - 0.5, axis=1)
    assert np.all(np.abs(r - (radius + level)) < 2.5 / n)
