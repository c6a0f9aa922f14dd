"""Visualization substrate.

Stands in for the paper's AVS/Express, vtk, COVISE rendering and SGI
OpenGL VizServer stack: geometry extraction (isosurfaces, cutting planes),
a software rasterizer producing framebuffers, and the framebuffer
delta/RLE compression that makes VizServer-style remote rendering cheap
on the wire ("only compressed bitmaps need to be sent", section 2.4).
"""

from repro.viz.framebuffer import FrameBuffer
from repro.viz.compress import (
    compress_frame,
    decompress_frame,
    delta_encode,
    delta_decode,
    rle_encode,
    rle_decode,
)
from repro.viz.render import Camera, Renderer
from repro.viz.isosurface import isosurface
from repro.viz.cutplane import cut_plane, axis_slice
from repro.viz.scene import Geometry, SceneGraph, SceneNode

__all__ = [
    "FrameBuffer",
    "compress_frame",
    "decompress_frame",
    "delta_encode",
    "delta_decode",
    "rle_encode",
    "rle_decode",
    "Camera",
    "Renderer",
    "isosurface",
    "cut_plane",
    "axis_slice",
    "Geometry",
    "SceneGraph",
    "SceneNode",
]
