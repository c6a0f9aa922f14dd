"""RGB framebuffer with depth, the unit of VizServer/vnc traffic."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


class FrameBuffer:
    """A ``(height, width, 3)`` uint8 color buffer plus float depth buffer."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ReproError("framebuffer dimensions must be positive")
        self.width = width
        self.height = height
        self.color = np.zeros((height, width, 3), dtype=np.uint8)
        self.depth = np.full((height, width), np.inf, dtype=np.float64)

    def clear(self, color=(0, 0, 0)) -> None:
        self.color[:] = np.asarray(color, dtype=np.uint8)
        self.depth[:] = np.inf

    @property
    def nbytes(self) -> int:
        """Raw (uncompressed) color size — what a naive remoting ships."""
        return self.color.nbytes

    def copy(self) -> "FrameBuffer":
        fb = FrameBuffer(self.width, self.height)
        fb.color[:] = self.color
        fb.depth[:] = self.depth
        return fb

    def __repr__(self) -> str:
        return f"FrameBuffer({self.width}x{self.height})"
