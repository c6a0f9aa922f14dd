"""Standard COVISE modules: the application categories of section 4.5.

ReadSim -> (CuttingPlane | IsoSurface) -> Renderer — the classic
simulation post-processing chain, with compute costs that scale with
data volume so the feedback-loop benches see realistic pipelines.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.covise.dataobj import (
    ImageData,
    PolygonData,
    ScalarField2D,
    UniformScalarField,
)
from repro.covise.modules import Module, PipelineError
from repro.viz import Camera, Renderer, cut_plane, isosurface


class ReadSim(Module):
    """Source module: pulls the newest field from a simulation callback.

    ``source`` is a callable returning a 3D ndarray (e.g. the steered
    simulation's latest sample); COVISE "integrat[es] simulation and
    visualization into one homogeneous environment" (section 4.5).
    """

    OUTPUT_PORTS = ("field",)
    PARAMS = {"spacing": (1.0, 1.0, 1.0)}

    def __init__(self, name: str, source: Callable[[], np.ndarray]) -> None:
        super().__init__(name)
        self.source = source

    def run(self, inputs, sds):
        field = np.asarray(self.source())
        if field.ndim != 3:
            raise PipelineError(f"{self.name!r}: source must yield a 3D field")
        obj = UniformScalarField(
            sds.unique_name("field"), field, spacing=self.params["spacing"]
        )
        return {"field": obj}

    def cost(self, inputs) -> float:
        return 0.002


class CuttingPlaneModule(Module):
    """Extracts a plane; the section 4.3 exploration tool."""

    INPUT_PORTS = ("field",)
    OUTPUT_PORTS = ("plane",)
    PARAMS = {"point": (0.0, 0.0, 0.0), "normal": (0.0, 0.0, 1.0),
              "resolution": 48}

    def run(self, inputs, sds):
        field_obj = inputs["field"]
        if not isinstance(field_obj, UniformScalarField):
            raise PipelineError(f"{self.name!r}: input must be a scalar field")
        coords, values = cut_plane(
            field_obj.field.astype(np.float64),
            point=np.asarray(self.params["point"], dtype=np.float64),
            normal=np.asarray(self.params["normal"], dtype=np.float64),
            resolution=int(self.params["resolution"]),
        )
        obj = ScalarField2D(sds.unique_name("plane"), values, coords=coords)
        obj.set_attribute("point", tuple(self.params["point"]))
        obj.set_attribute("normal", tuple(self.params["normal"]))
        return {"plane": obj}

    def cost(self, inputs) -> float:
        res = int(self.params["resolution"])
        return 0.002 + res * res * 3e-7


class IsoSurfaceModule(Module):
    INPUT_PORTS = ("field",)
    OUTPUT_PORTS = ("surface",)
    PARAMS = {"level": 0.0}

    def run(self, inputs, sds):
        field_obj = inputs["field"]
        if not isinstance(field_obj, UniformScalarField):
            raise PipelineError(f"{self.name!r}: input must be a scalar field")
        verts, faces = isosurface(
            field_obj.field.astype(np.float64),
            level=float(self.params["level"]),
            spacing=field_obj.spacing,
            origin=field_obj.origin,
        )
        return {"surface": PolygonData(sds.unique_name("iso"), verts, faces)}

    def cost(self, inputs) -> float:
        field = inputs["field"]
        return 0.003 + field.nbytes * 5e-9


class RendererModule(Module):
    """The rendering step at the end of the network (local graphics!).

    Produces a framebuffer image from a polygon surface; its ``camera``
    is the per-site view state that collaborative sessions synchronize.
    """

    INPUT_PORTS = ("surface",)
    OUTPUT_PORTS = ("frame",)
    PARAMS = {"width": 160, "height": 120}

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.camera = Camera(eye=np.array([0.0, -3.0, 0.0]))
        self.frames = 0

    def run(self, inputs, sds):
        surface = inputs["surface"]
        if not isinstance(surface, PolygonData):
            raise PipelineError(f"{self.name!r}: input must be polygons")
        r = Renderer(int(self.params["width"]), int(self.params["height"]))
        r.camera = self.camera
        if len(surface.faces):
            r.draw_triangles(surface.vertices, surface.faces)
        self.frames += 1
        return {"frame": ImageData(sds.unique_name("frame"), r.fb.color)}

    def cost(self, inputs) -> float:
        surface = inputs["surface"]
        ntris = len(surface.faces) if isinstance(surface, PolygonData) else 0
        return 0.004 + ntris * 2e-6
