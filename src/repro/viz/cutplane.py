"""Cutting planes through 3D scalar fields.

The COVISE post-processing feedback loop of section 4.3 is driven by
"modifying parameters of a visualization tool such as a cutting plane
position".  ``cut_plane`` samples an arbitrary plane with trilinear
interpolation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def trilinear_sample(field: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of ``field`` at fractional grid coords.

    ``points`` is ``(N, 3)`` in *index space* (0 .. shape-1).  Out-of-range
    points clamp to the boundary.
    """
    field = np.asarray(field, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    if field.ndim != 3 or pts.ndim != 2 or pts.shape[1] != 3:
        raise ReproError("need 3D field and (N, 3) points")
    maxi = np.array(field.shape, dtype=np.float64) - 1
    p = np.clip(pts, 0, maxi)
    i0 = np.floor(np.minimum(p, maxi - 1e-9)).astype(np.intp)
    i0 = np.minimum(i0, (np.array(field.shape) - 2))
    i0 = np.maximum(i0, 0)
    f = p - i0
    x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    c000 = field[x0, y0, z0]
    c100 = field[x0 + 1, y0, z0]
    c010 = field[x0, y0 + 1, z0]
    c110 = field[x0 + 1, y0 + 1, z0]
    c001 = field[x0, y0, z0 + 1]
    c101 = field[x0 + 1, y0, z0 + 1]
    c011 = field[x0, y0 + 1, z0 + 1]
    c111 = field[x0 + 1, y0 + 1, z0 + 1]
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def cut_plane(
    field: np.ndarray,
    point: np.ndarray,
    normal: np.ndarray,
    resolution: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``field`` on a plane through ``point`` with ``normal``.

    Returns ``(coords (res, res, 3), values (res, res))`` where coords are
    in index space.  The plane patch spans the field's bounding box
    diagonal so it always covers the volume.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ReproError("cut_plane needs a 3D field")
    if resolution < 2:
        raise ReproError("resolution must be >= 2")
    point = np.asarray(point, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    nn = np.linalg.norm(normal)
    if nn == 0:
        raise ReproError("zero normal")
    normal = normal / nn
    # Build an orthonormal basis (u, v) in the plane.
    helper = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, helper)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    half = 0.5 * np.linalg.norm(np.array(field.shape, dtype=np.float64))
    s = np.linspace(-half, half, resolution)
    su, sv = np.meshgrid(s, s, indexing="ij")
    coords = point[None, None, :] + su[..., None] * u + sv[..., None] * v
    values = trilinear_sample(field, coords.reshape(-1, 3)).reshape(
        resolution, resolution
    )
    return coords, values
