"""COVISE data objects.

"COVISE in contrast to other visualization systems uses the notion of
data objects instead of relying on a pure data flow paradigm...
Scientific data is handled as data objects which have attributes such as
names and lifetime.  They represent grids on which dependent data is
defined" (section 4.5).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import CoviseError


class DataObject:
    """Base data object: unique name, attributes, payload size."""

    def __init__(self, name: str) -> None:
        if not name:
            raise CoviseError("data object needs a name")
        self.name = name
        self.attributes: dict[str, Any] = {}
        self.creator: str = ""

    @property
    def nbytes(self) -> int:
        return 0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.nbytes} B)"


class UniformScalarField(DataObject):
    """A scalar field on a uniform 3D grid (temperature, order parameter)."""

    def __init__(
        self,
        name: str,
        field: np.ndarray,
        spacing: tuple = (1.0, 1.0, 1.0),
        origin: tuple = (0.0, 0.0, 0.0),
    ) -> None:
        super().__init__(name)
        field = np.asarray(field)
        if field.ndim != 3:
            raise CoviseError("UniformScalarField needs a 3D array")
        self.field = field
        self.spacing = tuple(float(s) for s in spacing)
        self.origin = tuple(float(o) for o in origin)

    @property
    def nbytes(self) -> int:
        return self.field.nbytes


class ScalarField2D(DataObject):
    """A 2D scalar patch (a cutting-plane result)."""

    def __init__(self, name: str, values: np.ndarray,
                 coords: Optional[np.ndarray] = None) -> None:
        super().__init__(name)
        values = np.asarray(values)
        if values.ndim != 2:
            raise CoviseError("ScalarField2D needs a 2D array")
        self.values = values
        self.coords = coords

    @property
    def nbytes(self) -> int:
        total = self.values.nbytes
        if self.coords is not None:
            total += self.coords.nbytes
        return total


class PolygonData(DataObject):
    """Triangle mesh (isosurface output, building geometry)."""

    def __init__(self, name: str, vertices: np.ndarray, faces: np.ndarray) -> None:
        super().__init__(name)
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.faces = np.asarray(faces, dtype=np.intp)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise CoviseError("vertices must be (N, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise CoviseError("faces must be (K, 3)")

    @property
    def nbytes(self) -> int:
        return self.vertices.nbytes + self.faces.nbytes


class ImageData(DataObject):
    """A rendered RGB image (the end of a pipeline)."""

    def __init__(self, name: str, pixels: np.ndarray) -> None:
        super().__init__(name)
        pixels = np.asarray(pixels, dtype=np.uint8)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise CoviseError("pixels must be (H, W, 3)")
        self.pixels = pixels

    @property
    def nbytes(self) -> int:
        return self.pixels.nbytes
