"""Software rasterizer: camera projection + z-buffered primitives.

Stands in for the graphics pipes of the visual supercomputer.  It renders
points and triangles into a :class:`FrameBuffer` with perspective
projection and a z-buffer.  Point splatting is fully vectorized (particle
clouds are the dominant workload — PEPC ships hundreds of thousands of
particles); triangles rasterize per-face with a vectorized barycentric
fill, fine for the isosurface sizes the benches use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ReproError
from repro.viz.framebuffer import FrameBuffer


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0:
        raise ReproError("zero-length vector")
    return v / n


@dataclass
class Camera:
    """Look-at perspective camera.

    ``eye``/``target``/``up`` define the view; ``fov_deg`` the vertical
    field of view.  The shareable "view point" of a collaborative session
    (section 4.2) is exactly this small parameter set.
    """

    eye: np.ndarray = field(default_factory=lambda: np.array([3.0, 3.0, 3.0]))
    target: np.ndarray = field(default_factory=lambda: np.zeros(3))
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    fov_deg: float = 60.0
    near: float = 0.01

    def __post_init__(self) -> None:
        self.eye = np.asarray(self.eye, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)

    def basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        forward = _normalize(self.target - self.eye)
        right = _normalize(np.cross(forward, self.up))
        true_up = np.cross(right, forward)
        return right, true_up, forward

    def project(
        self, points: np.ndarray, width: int, height: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """World points ``(N, 3)`` -> pixel coords ``(N, 2)`` + depth ``(N,)``.

        Points behind the near plane get depth ``inf`` (culled by callers).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        right, true_up, forward = self.basis()
        rel = pts - self.eye
        cam = np.empty_like(rel)
        cam[:, 0] = rel @ right
        cam[:, 1] = rel @ true_up
        cam[:, 2] = rel @ forward
        depth = cam[:, 2].copy()
        safe = depth > self.near
        f = 1.0 / np.tan(np.radians(self.fov_deg) / 2.0)
        aspect = width / height
        xy = np.full((len(pts), 2), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            ndc_x = (cam[:, 0] * f / aspect) / depth
            ndc_y = (cam[:, 1] * f) / depth
        xy[safe, 0] = (ndc_x[safe] + 1.0) * 0.5 * (width - 1)
        xy[safe, 1] = (1.0 - ndc_y[safe]) * 0.5 * (height - 1)
        depth[~safe] = np.inf
        return xy, depth

    def state(self) -> dict:
        """Serializable view parameters — the sync payload for FIG4/S42."""
        return {
            "eye": self.eye.copy(),
            "target": self.target.copy(),
            "up": self.up.copy(),
            "fov_deg": float(self.fov_deg),
        }

    def apply_state(self, state: dict) -> None:
        self.eye = np.asarray(state["eye"], dtype=np.float64)
        self.target = np.asarray(state["target"], dtype=np.float64)
        self.up = np.asarray(state["up"], dtype=np.float64)
        self.fov_deg = float(state["fov_deg"])

    def orbit(self, azimuth_rad: float) -> None:
        """Rotate the eye around the target's vertical axis (user motion)."""
        rel = self.eye - self.target
        c, s = np.cos(azimuth_rad), np.sin(azimuth_rad)
        x, y = rel[0], rel[1]
        rel[0], rel[1] = c * x - s * y, s * x + c * y
        self.eye = self.target + rel


class Renderer:
    """Rasterizes primitives through a camera into a framebuffer.

    The framebuffer (11 bytes a pixel: 845 KB at 320x240) is built on
    the first access to :attr:`fb` — every steering session owns a
    renderer, and most are never asked for a frame.  The dimensions are
    checked at construction all the same.
    """

    def __init__(self, width: int = 320, height: int = 240) -> None:
        if width < 1 or height < 1:
            raise ReproError("framebuffer dimensions must be positive")
        self._size = (width, height)
        self.camera = Camera()
        #: primitives drawn since the last clear (a proxy for scene load)
        self.primitives_drawn = 0

    @cached_property
    def fb(self) -> FrameBuffer:
        return FrameBuffer(*self._size)

    def clear(self, color=(0, 0, 0)) -> None:
        self.fb.clear(color)
        self.primitives_drawn = 0

    # -- points ------------------------------------------------------------

    def draw_points(self, points: np.ndarray, colors=None) -> int:
        """Splat points, one pixel each; returns how many were visible."""
        if len(points) == 0:
            return 0
        xy, depth = self.camera.project(points, self.fb.width, self.fb.height)
        ok = np.isfinite(depth)
        ok &= (xy[:, 0] >= 0) & (xy[:, 0] < self.fb.width)
        ok &= (xy[:, 1] >= 0) & (xy[:, 1] < self.fb.height)
        if not np.any(ok):
            return 0
        px = xy[ok].astype(np.intp)
        dz = depth[ok]
        if colors is None:
            cols = np.full((len(px), 3), 255, dtype=np.uint8)
        else:
            cols = np.atleast_2d(np.asarray(colors, dtype=np.uint8))
            if len(cols) == 1:
                cols = np.repeat(cols, len(points), axis=0)
            cols = cols[ok]
        # z-test: sort far-to-near so the nearest point wins ties
        order = np.argsort(-dz, kind="stable")
        xs, ys, zs, cs = px[order, 0], px[order, 1], dz[order], cols[order]
        win = zs <= self.fb.depth[ys, xs]
        self.fb.depth[ys[win], xs[win]] = zs[win]
        self.fb.color[ys[win], xs[win]] = cs[win]
        self.primitives_drawn += len(px)
        return int(np.sum(win))

    # -- triangles ------------------------------------------------------------

    def draw_triangles(
        self, vertices: np.ndarray, faces: np.ndarray, color=(200, 200, 255)
    ) -> None:
        """Z-buffered flat-shaded triangles (Lambert against the view ray)."""
        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.intp)
        if len(faces) == 0:
            return
        xy, depth = self.camera.project(vertices, self.fb.width, self.fb.height)
        base = np.asarray(color, dtype=np.float64)
        _, _, forward = self.camera.basis()
        for tri in faces:
            if not np.all(np.isfinite(depth[tri])):
                continue
            p = xy[tri]
            z = depth[tri]
            # flat shading from the face normal
            a, b, c = vertices[tri]
            n = np.cross(b - a, c - a)
            nn = np.linalg.norm(n)
            if nn == 0:
                continue
            shade = 0.25 + 0.75 * abs(float(np.dot(n / nn, forward)))
            col = np.clip(base * shade, 0, 255).astype(np.uint8)
            self._fill_triangle(p, z, col)
        self.primitives_drawn += len(faces)

    def _fill_triangle(self, p: np.ndarray, z: np.ndarray, color: np.ndarray) -> None:
        xmin = max(int(np.floor(p[:, 0].min())), 0)
        xmax = min(int(np.ceil(p[:, 0].max())), self.fb.width - 1)
        ymin = max(int(np.floor(p[:, 1].min())), 0)
        ymax = min(int(np.ceil(p[:, 1].max())), self.fb.height - 1)
        if xmin > xmax or ymin > ymax:
            return
        xs, ys = np.meshgrid(
            np.arange(xmin, xmax + 1), np.arange(ymin, ymax + 1)
        )
        d = (p[1, 1] - p[2, 1]) * (p[0, 0] - p[2, 0]) + (p[2, 0] - p[1, 0]) * (
            p[0, 1] - p[2, 1]
        )
        if abs(d) < 1e-12:
            return
        w0 = ((p[1, 1] - p[2, 1]) * (xs - p[2, 0]) + (p[2, 0] - p[1, 0]) * (ys - p[2, 1])) / d
        w1 = ((p[2, 1] - p[0, 1]) * (xs - p[2, 0]) + (p[0, 0] - p[2, 0]) * (ys - p[2, 1])) / d
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not np.any(inside):
            return
        zi = w0 * z[0] + w1 * z[1] + w2 * z[2]
        yy, xx = ys[inside], xs[inside]
        zz = zi[inside]
        win = zz < self.fb.depth[yy, xx]
        self.fb.depth[yy[win], xx[win]] = zz[win]
        self.fb.color[yy[win], xx[win]] = color

    # -- convenience ------------------------------------------------------------

    def render_geometry(self, geometry) -> None:
        """Draw a :class:`repro.viz.scene.Geometry` by kind."""
        kind = geometry.kind
        if kind == "points":
            self.draw_points(geometry.vertices, colors=geometry.colors)
        elif kind == "triangles":
            self.draw_triangles(geometry.vertices, geometry.faces, color=geometry.base_color)
        else:
            raise ReproError(f"unknown geometry kind {kind!r}")
