"""Framebuffer compression: byte RLE plus inter-frame delta coding.

This is the economics of OpenGL VizServer (section 2.4): isosurface
geometry too large for a laptop stays on the visualization server; the
wire carries "only compressed bitmaps", whose size tracks *screen area
and frame-to-frame change*, not dataset size.  The vnc sharing of the
steering client works the same way.

The formats are deliberately simple (run-length on raw bytes, pixel-delta
against the previous frame) — fast, dependency-free, and with the right
asymptotics for the traffic benches.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CodecError
from repro.viz.framebuffer import FrameBuffer

_MAGIC_FULL = b"VZF1"
_MAGIC_DELTA = b"VZD1"


def rle_encode(data: bytes | np.ndarray) -> bytes:
    """Run-length encode bytes as ``(count u8, value u8)`` pairs.

    Vectorized with NumPy run detection: positions where the value changes
    delimit runs; runs longer than 255 are split.
    """
    arr = np.frombuffer(
        data.tobytes() if isinstance(data, np.ndarray) else bytes(data), dtype=np.uint8
    )
    if arr.size == 0:
        return b""
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [arr.size]))
    lengths = ends - starts
    values = arr[starts]
    # Split runs longer than 255 into repeats: each run of length L becomes
    # ceil(L/255) pairs — all 255 except the final remainder.
    reps = (lengths + 254) // 255
    out_vals = np.repeat(values, reps)
    out_lens = np.full(out_vals.size, 255, dtype=np.uint8)
    last_pos = np.cumsum(reps) - 1
    remainder = lengths - 255 * (reps - 1)
    out_lens[last_pos] = remainder.astype(np.uint8)
    interleaved = np.empty(out_vals.size * 2, dtype=np.uint8)
    interleaved[0::2] = out_lens
    interleaved[1::2] = out_vals
    return interleaved.tobytes()


def rle_decode(blob: bytes) -> bytes:
    """Inverse of :func:`rle_encode`."""
    if len(blob) % 2 != 0:
        raise CodecError("RLE stream has odd length")
    pairs = np.frombuffer(blob, dtype=np.uint8).reshape(-1, 2)
    return np.repeat(pairs[:, 1], pairs[:, 0]).tobytes()


def delta_encode(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Per-byte difference (mod 256) between two frames of equal shape."""
    if current.shape != previous.shape:
        raise CodecError("delta frames must have equal shape")
    return (current.astype(np.int16) - previous.astype(np.int16)).astype(np.uint8)


def delta_decode(delta: np.ndarray, previous: np.ndarray) -> np.ndarray:
    return (previous.astype(np.int16) + delta.astype(np.int16)).astype(np.uint8)


def compress_frame(fb: FrameBuffer, previous: FrameBuffer | None = None) -> bytes:
    """Compress a framebuffer, optionally against the previous frame.

    Header records mode and dimensions; payload is RLE of either the raw
    frame or its delta.  An unchanged region deltas to all-zero bytes,
    which RLE collapses ~500x — this is why a slowly-changing view costs
    almost nothing on the wire.
    """
    if previous is None:
        payload = rle_encode(fb.color.reshape(-1))
        return _MAGIC_FULL + struct.pack("<HH", fb.width, fb.height) + payload
    if (previous.width, previous.height) != (fb.width, fb.height):
        raise CodecError("previous frame has different dimensions")
    delta = delta_encode(fb.color.reshape(-1), previous.color.reshape(-1))
    payload = rle_encode(delta)
    return _MAGIC_DELTA + struct.pack("<HH", fb.width, fb.height) + payload


def decompress_frame(blob: bytes, previous: FrameBuffer | None = None) -> FrameBuffer:
    """Inverse of :func:`compress_frame`."""
    if len(blob) < 8:
        raise CodecError("truncated compressed frame")
    magic, dims, payload = blob[:4], blob[4:8], blob[8:]
    width, height = struct.unpack("<HH", dims)
    raw = np.frombuffer(rle_decode(payload), dtype=np.uint8)
    expected = width * height * 3
    if raw.size != expected:
        raise CodecError(f"frame payload {raw.size} != {expected} bytes")
    fb = FrameBuffer(width, height)
    if magic == _MAGIC_FULL:
        fb.color[:] = raw.reshape(height, width, 3)
    elif magic == _MAGIC_DELTA:
        if previous is None:
            raise CodecError("delta frame needs the previous frame")
        if (previous.width, previous.height) != (width, height):
            raise CodecError("previous frame has different dimensions")
        fb.color[:] = delta_decode(raw, previous.color.reshape(-1)).reshape(
            height, width, 3
        )
    else:
        raise CodecError(f"bad frame magic {magic!r}")
    return fb
