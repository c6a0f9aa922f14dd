"""Renderer and scene-graph tests."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.viz import Camera, Geometry, Renderer, SceneGraph
from repro.viz.isosurface import isosurface


def test_camera_project_center():
    cam = Camera(eye=np.array([0.0, -5.0, 0.0]), target=np.zeros(3),
                 up=np.array([0.0, 0.0, 1.0]))
    xy, depth = cam.project(np.zeros((1, 3)), 100, 100)
    assert xy[0, 0] == pytest.approx(49.5, abs=1.0)
    assert xy[0, 1] == pytest.approx(49.5, abs=1.0)
    assert depth[0] == pytest.approx(5.0)


def test_camera_behind_near_plane_culled():
    cam = Camera(eye=np.array([0.0, -5.0, 0.0]), target=np.zeros(3))
    _, depth = cam.project(np.array([[0.0, -10.0, 0.0]]), 64, 64)
    assert np.isinf(depth[0])


def test_camera_state_roundtrip():
    cam = Camera()
    cam.orbit(0.7)
    state = cam.state()
    cam2 = Camera()
    cam2.apply_state(state)
    np.testing.assert_allclose(cam2.eye, cam.eye)
    assert cam2.fov_deg == cam.fov_deg


def test_camera_orbit_preserves_distance():
    cam = Camera(eye=np.array([2.0, 0.0, 1.0]), target=np.zeros(3))
    d0 = np.linalg.norm(cam.eye - cam.target)
    cam.orbit(1.1)
    assert np.linalg.norm(cam.eye - cam.target) == pytest.approx(d0)


def test_draw_points_writes_pixels():
    r = Renderer(64, 64)
    r.camera = Camera(eye=np.array([0.0, -3.0, 0.0]), target=np.zeros(3))
    n = r.draw_points(np.zeros((1, 3)), colors=np.array([[255, 0, 0]], dtype=np.uint8))
    assert n == 1
    assert (r.fb.color == np.array([255, 0, 0])).all(axis=2).any()


def test_draw_points_z_buffer_near_wins():
    r = Renderer(64, 64)
    r.camera = Camera(eye=np.array([0.0, -3.0, 0.0]), target=np.zeros(3))
    pts = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.0]])  # second is nearer
    cols = np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8)
    r.draw_points(pts, colors=cols)
    green_pixels = (r.fb.color == np.array([0, 255, 0])).all(axis=2).sum()
    assert green_pixels >= 1
    # at the shared pixel the near (green) point must have won
    ys, xs = np.nonzero((r.fb.color != 0).any(axis=2))
    for y, x in zip(ys, xs):
        if r.fb.depth[y, x] == pytest.approx(2.0):
            assert tuple(r.fb.color[y, x]) == (0, 255, 0)


def test_draw_triangles_fills_area():
    r = Renderer(64, 64)
    r.camera = Camera(eye=np.array([0.0, -3.0, 0.0]), target=np.zeros(3))
    verts = np.array([[-1, 0, -1], [1, 0, -1], [0, 0, 1.5]], dtype=float)
    r.draw_triangles(verts, np.array([[0, 1, 2]]))
    filled = (r.fb.color.sum(axis=2) > 0).sum()
    assert filled > 100


def test_render_isosurface_end_to_end():
    n = 16
    ax = np.linspace(-1, 1, n)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
    field = np.sqrt(x**2 + y**2 + z**2) - 0.6
    verts, faces = isosurface(field, 0.0, spacing=(2.0 / (n - 1),) * 3,
                              origin=(-1.0, -1.0, -1.0))
    r = Renderer(80, 60)
    r.camera = Camera(eye=np.array([0.0, -3.0, 0.0]), target=np.zeros(3))
    r.draw_triangles(verts, faces)
    assert (r.fb.color.sum(axis=2) > 0).mean() > 0.02


def test_geometry_validation_and_bytes():
    with pytest.raises(ReproError):
        Geometry("blobs", np.zeros((3, 3)))
    with pytest.raises(ReproError):
        Geometry("lines", np.zeros((4, 3)))
    with pytest.raises(ReproError):
        Geometry("triangles", np.zeros((3, 3)))


def test_scene_graph_add_walk_remove():
    sg = SceneGraph()
    sg.add_node("fluid")
    sg.add_node("iso", parent="fluid")
    names = [n.name for n in sg.root.walk()]
    assert names == ["root", "fluid", "iso"]


def test_scene_graph_duplicate_and_missing():
    sg = SceneGraph()
    sg.add_node("a")
    with pytest.raises(ReproError):
        sg.add_node("a")
    with pytest.raises(ReproError):
        sg.add_node("b", parent="zzz")


def test_scene_graph_geometry_bytes_and_render():
    sg = SceneGraph()
    sg.add_node("mesh", Geometry("points", np.zeros((100, 3))))
    r = Renderer(32, 32)
    r.camera = Camera(eye=np.array([0.0, -3.0, 0.0]), target=np.zeros(3))
    sg.render_into(r)
    assert (r.fb.color != 0).any()
