"""Isosurface extraction on uniform grids (marching tetrahedra).

The RealityGrid demo renders isosurfaces of the Lattice-Boltzmann fluid
order parameter (section 2.2); COVISE has an IsoSurface module.  Marching
tetrahedra is used instead of marching cubes: identical output class
(a triangle mesh at ``field == level``), no ambiguous cases, and a case
table small enough to audit.

Each grid cell is split into six tetrahedra; each tetrahedron contributes
0–2 triangles with vertices linearly interpolated along crossing edges.
The implementation vectorizes over *all cells at once* per (tet, case)
pair — 6 x 14 small iterations with NumPy-array bodies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

# Six tetrahedra covering the unit cube, as corner indices of the cube's
# 8 vertices (standard Kuhn subdivision along the main diagonal 0-7).
_CUBE_CORNERS = np.array(
    [
        [0, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 1],
    ],
    dtype=np.intp,
)

_TETS = np.array(
    [
        [0, 1, 3, 7],
        [0, 1, 5, 7],
        [0, 2, 3, 7],
        [0, 2, 6, 7],
        [0, 4, 5, 7],
        [0, 4, 6, 7],
    ],
    dtype=np.intp,
)

# For each of the 16 inside/outside sign patterns of a tet's 4 vertices,
# the triangles to emit, each triangle being 3 edges (pairs of local
# vertex indices) on which the surface vertex is interpolated.
_TET_CASES: dict[int, list[tuple[tuple[int, int], ...]]] = {}


def _build_cases() -> None:
    for mask in range(16):
        inside = [v for v in range(4) if mask & (1 << v)]
        outside = [v for v in range(4) if not mask & (1 << v)]
        if len(inside) in (0, 4):
            _TET_CASES[mask] = []
        elif len(inside) == 1:
            v = inside[0]
            a, b, c = outside
            _TET_CASES[mask] = [((v, a), (v, b), (v, c))]
        elif len(inside) == 3:
            v = outside[0]
            a, b, c = inside
            _TET_CASES[mask] = [((a, v), (b, v), (c, v))]
        else:  # two in, two out -> quad -> two triangles
            v0, v1 = inside
            w0, w1 = outside
            _TET_CASES[mask] = [
                ((v0, w0), (v0, w1), (v1, w0)),
                ((v1, w0), (v0, w1), (v1, w1)),
            ]


_build_cases()


def isosurface(
    field: np.ndarray,
    level: float,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Extract the ``field == level`` surface from a 3D scalar grid.

    Returns ``(vertices (M, 3) float64, faces (K, 3) intp)``.  Vertices
    are *not* deduplicated across cells — the consumer is a flat-shaded
    renderer / wire-size model, where weld topology does not matter.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3:
        raise ReproError("isosurface needs a 3D scalar field")
    if min(field.shape) < 2:
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.intp)

    nx, ny, nz = field.shape
    # Gather the 8 corner values for every cell: shape (8, ncells)
    cx, cy, cz = nx - 1, ny - 1, nz - 1
    corner_vals = np.empty((8, cx, cy, cz))
    for ci, (dx, dy, dz) in enumerate(_CUBE_CORNERS):
        corner_vals[ci] = field[dx : dx + cx, dy : dy + cy, dz : dz + cz]
    corner_vals = corner_vals.reshape(8, -1)

    # Cell origin coordinates, flattened in the same order.
    ix, iy, iz = np.meshgrid(
        np.arange(cx), np.arange(cy), np.arange(cz), indexing="ij"
    )
    cell_origin = np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1).astype(
        np.float64
    )

    spacing_arr = np.asarray(spacing, dtype=np.float64)
    origin_arr = np.asarray(origin, dtype=np.float64)
    tri_chunks: list[np.ndarray] = []

    for tet in _TETS:
        vals = corner_vals[tet]  # (4, ncells)
        inside = vals >= level
        mask = (
            inside[0].astype(np.intp)
            | (inside[1].astype(np.intp) << 1)
            | (inside[2].astype(np.intp) << 2)
            | (inside[3].astype(np.intp) << 3)
        )
        corner_offsets = _CUBE_CORNERS[tet].astype(np.float64)  # (4, 3)
        for case in range(1, 15):
            cells = np.flatnonzero(mask == case)
            if cells.size == 0:
                continue
            for tri_edges in _TET_CASES[case]:
                verts = np.empty((cells.size, 3, 3))
                for k, (a, b) in enumerate(tri_edges):
                    va = vals[a][cells]
                    vb = vals[b][cells]
                    denom = vb - va
                    t = np.where(np.abs(denom) > 1e-300, (level - va) / denom, 0.5)
                    t = np.clip(t, 0.0, 1.0)
                    pa = cell_origin[cells] + corner_offsets[a]
                    pb = cell_origin[cells] + corner_offsets[b]
                    verts[:, k, :] = pa + t[:, None] * (pb - pa)
                tri_chunks.append(verts)

    if not tri_chunks:
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.intp)
    all_tris = np.concatenate(tri_chunks, axis=0)  # (K, 3, 3)
    vertices = all_tris.reshape(-1, 3) * spacing_arr + origin_arr
    faces = np.arange(vertices.shape[0], dtype=np.intp).reshape(-1, 3)
    return vertices, faces
