"""The visualization steering service (the second service in Figure 2).

Owns the server-side visualization pipeline for one application: ingests
samples from the simulation, extracts geometry (isosurface of the sample
field), renders on the "visualization supercomputer", and serves
VizServer-style compressed frames.  Steerable visualization parameters —
view point, isosurface level — are service operations, so visualization
steering rides the same OGSA machinery as application steering.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import OgsaError
from repro.ogsa.service import GridService, operation
from repro.steering.api import pump
from repro.steering.control import SampleMsg
from repro.viz import Camera, Renderer, compress_frame, isosurface


#: pixels of every frame the service renders
FRAME_WIDTH = 320
FRAME_HEIGHT = 240


class VisualizationService(GridService):
    """Grid service wrapping a renderer fed by simulation samples."""

    def __init__(
        self, service_id: str, sample_link, field_key: str = "order_parameter"
    ) -> None:
        super().__init__(service_id)
        self.sample_link = sample_link
        self.field_key = field_key
        self.renderer = Renderer(FRAME_WIDTH, FRAME_HEIGHT)
        self.iso_level = 0.0
        self.latest_field: Optional[np.ndarray] = None
        self.latest_step = -1
        self.frames_rendered = 0
        #: observability hook ``cb(step)`` fired per ingested sample
        #: (set by the orchestrator when tracing is attached; None = off)
        self.on_frame = None
        self._prev_frame = None
        self.service_data["field"] = field_key
        self.service_data["viewport"] = [FRAME_WIDTH, FRAME_HEIGHT]

    def attached(self, container, now: float) -> None:
        super().attached(container, now)
        self.env.process(pump(self.env, self.sample_link, self._ingest))

    def _ingest(self, msg) -> None:
        if isinstance(msg, SampleMsg) and self.field_key in msg.data:
            self.latest_field = np.asarray(msg.data[self.field_key])
            self.latest_step = msg.step
            if self.on_frame is not None:
                self.on_frame(msg.step)

    # -- operations ------------------------------------------------------------

    @operation
    def set_view(self, eye: list, target: list) -> bool:
        eye_arr = np.asarray(eye, dtype=np.float64)
        target_arr = np.asarray(target, dtype=np.float64)
        if eye_arr.shape != (3,) or target_arr.shape != (3,):
            raise OgsaError("eye and target must be 3-vectors")
        self.renderer.camera = Camera(eye=eye_arr, target=target_arr)
        return True

    @operation
    def set_iso_level(self, level: float) -> bool:
        self.iso_level = float(level)
        return True

    @operation
    def render_frame(self) -> dict:
        """Render the newest sample; returns the compressed frame.

        This is the VizServer path: geometry stays here, the caller gets
        bitmap bytes whose size is screen-dependent, not data-dependent.
        """
        if self.latest_field is None:
            raise OgsaError("no sample received yet")
        field = self.latest_field
        n = max(field.shape)
        verts, faces = isosurface(
            field.astype(np.float64),
            level=self.iso_level,
            spacing=(2.0 / max(1, n - 1),) * 3,
            origin=(-1.0, -1.0, -1.0),
        )
        self.renderer.clear()
        if len(faces):
            self.renderer.draw_triangles(verts, faces)
        frame = self.renderer.fb
        blob = compress_frame(frame, previous=self._prev_frame)
        self._prev_frame = frame.copy()
        self.frames_rendered += 1
        return {
            "step": self.latest_step,
            "triangles": int(len(faces)),
            "frame": blob,
            "raw_bytes": frame.nbytes,
            "geometry_bytes": int(verts.nbytes + faces.nbytes),
        }

    @operation
    def stats(self) -> dict:
        return {
            "frames_rendered": self.frames_rendered,
            "latest_step": self.latest_step,
            "iso_level": self.iso_level,
        }
