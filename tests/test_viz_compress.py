"""Framebuffer + compression tests, incl. property round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, ReproError
from repro.viz import (
    FrameBuffer,
    compress_frame,
    decompress_frame,
    delta_decode,
    delta_encode,
    rle_decode,
    rle_encode,
)


def test_framebuffer_basics():
    fb = FrameBuffer(8, 4)
    assert fb.nbytes == 8 * 4 * 3
    fb.color[2, 3] = (9, 9, 9)
    fb.clear((1, 2, 3))
    assert np.all(fb.color == np.array([1, 2, 3], dtype=np.uint8))
    assert np.all(np.isinf(fb.depth))


def test_framebuffer_invalid_size():
    with pytest.raises(ReproError):
        FrameBuffer(0, 5)


def test_rle_roundtrip_simple():
    data = b"\x00" * 100 + b"\x07" + b"\xff" * 300
    assert rle_decode(rle_encode(data)) == data


def test_rle_empty():
    assert rle_encode(b"") == b""
    assert rle_decode(b"") == b""


def test_rle_run_exactly_255_and_256():
    for n in (254, 255, 256, 510, 511):
        data = b"\xaa" * n
        assert rle_decode(rle_encode(data)) == data


def test_rle_compresses_uniform_data():
    data = b"\x00" * 10000
    assert len(rle_encode(data)) < 100


def test_rle_odd_stream_rejected():
    with pytest.raises(CodecError):
        rle_decode(b"\x01")


def test_delta_roundtrip():
    rng = np.random.default_rng(3)
    prev = rng.integers(0, 256, 1000, dtype=np.uint8)
    cur = rng.integers(0, 256, 1000, dtype=np.uint8)
    d = delta_encode(cur, prev)
    np.testing.assert_array_equal(delta_decode(d, prev), cur)


def test_delta_shape_mismatch():
    with pytest.raises(CodecError):
        delta_encode(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))


def test_full_frame_roundtrip():
    fb = FrameBuffer(32, 24)
    rng = np.random.default_rng(0)
    fb.color[:] = rng.integers(0, 256, fb.color.shape, dtype=np.uint8)
    out = decompress_frame(compress_frame(fb))
    assert np.array_equal(out.color, fb.color)


def test_delta_frame_roundtrip():
    rng = np.random.default_rng(1)
    prev = FrameBuffer(16, 16)
    prev.color[:] = rng.integers(0, 256, prev.color.shape, dtype=np.uint8)
    cur = prev.copy()
    cur.color[4:8, 4:8] = 200
    blob = compress_frame(cur, previous=prev)
    out = decompress_frame(blob, previous=prev)
    assert np.array_equal(out.color, cur.color)


def test_delta_frame_much_smaller_when_static():
    rng = np.random.default_rng(2)
    prev = FrameBuffer(64, 64)
    prev.color[:] = rng.integers(0, 256, prev.color.shape, dtype=np.uint8)
    cur = prev.copy()
    cur.color[0, 0] = (1, 2, 3)  # single pixel changed
    full = compress_frame(cur)
    delta = compress_frame(cur, previous=prev)
    assert len(delta) < len(full) / 20


def test_delta_frame_requires_previous_on_decode():
    prev = FrameBuffer(8, 8)
    cur = prev.copy()
    cur.color[0, 0] = 5
    blob = compress_frame(cur, previous=prev)
    with pytest.raises(CodecError):
        decompress_frame(blob)


def test_dimension_mismatch_rejected():
    with pytest.raises(CodecError):
        compress_frame(FrameBuffer(8, 8), previous=FrameBuffer(9, 8))


def test_bad_magic():
    with pytest.raises(CodecError):
        decompress_frame(b"XXXX\x08\x00\x08\x00")


def test_compression_ratio_static_scene_high():
    prev = FrameBuffer(64, 64)
    cur = prev.copy()
    assert cur.nbytes / len(compress_frame(cur, prev)) > 100


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=2000))
def test_property_rle_roundtrip(data):
    assert rle_decode(rle_encode(data)) == data


@settings(max_examples=20, deadline=None)
@given(
    w=st.integers(1, 24),
    h=st.integers(1, 24),
    seed=st.integers(0, 1000),
)
def test_property_frame_roundtrip(w, h, seed):
    rng = np.random.default_rng(seed)
    fb = FrameBuffer(w, h)
    fb.color[:] = rng.integers(0, 256, fb.color.shape, dtype=np.uint8)
    assert np.array_equal(decompress_frame(compress_frame(fb)).color, fb.color)
    prev = FrameBuffer(w, h)
    prev.color[:] = rng.integers(0, 256, prev.color.shape, dtype=np.uint8)
    assert np.array_equal(decompress_frame(compress_frame(fb, prev), prev).color, fb.color)
