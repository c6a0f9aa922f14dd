"""Codec unit + property tests: round-trips in both byte orders."""

import enum
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.channel import wire_size
from repro.ogsa.soap import ENVELOPE_NS, Envelope, envelope
from repro.steering import control
from repro.wire import coerce_array, decode, describe, encode
from repro.wire.codec import SCHEMA_SIZERS, approx_size, approx_size_reference


@pytest.mark.parametrize("bo", ["<", ">"])
@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**31 - 1,
        -(2**31),
        2**31,  # forces INT64
        -(2**63),
        3.14159,
        float("inf"),
        "",
        "hello",
        "ünïcödé ✓",
        b"",
        b"\x00\xff raw",
        [],
        [1, "two", 3.0, None],
        {"a": 1, "b": [2, {"c": "deep"}]},
    ],
)
def test_scalar_roundtrip(value, bo):
    assert decode(encode(value, bo)) == value


@pytest.mark.parametrize("bo", ["<", ">"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float32, np.float64])
def test_array_roundtrip(dtype, bo):
    arr = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    out = decode(encode(arr, bo))
    assert out.dtype == np.dtype(dtype)
    assert out.shape == arr.shape
    np.testing.assert_array_equal(out, arr)


def test_decoded_array_is_native_order():
    arr = np.linspace(0, 1, 10, dtype=np.float64)
    out = decode(encode(arr, ">"))
    assert out.dtype.byteorder in ("=", "<" if np.little_endian else ">")
    np.testing.assert_array_equal(out, arr)


def test_empty_and_zero_dim_arrays():
    empty = np.array([], dtype=np.float32)
    out = decode(encode(empty))
    assert out.shape == (0,) and out.dtype == np.float32
    scalar = np.array(7.5, dtype=np.float64)  # 0-d
    out = decode(encode(scalar))
    assert out.shape == () and float(out) == 7.5


def test_struct_inside_list_inside_struct():
    value = {"rows": [{"x": np.arange(3, dtype=np.int32)}, {"x": None}]}
    out = decode(encode(value))
    np.testing.assert_array_equal(out["rows"][0]["x"], np.arange(3, dtype=np.int32))
    assert out["rows"][1]["x"] is None


def test_bool_not_confused_with_int():
    assert decode(encode(True)) is True
    assert decode(encode(1)) == 1
    assert decode(encode(1)) is not True or decode(encode(1)) == 1


def test_unsupported_type_raises():
    with pytest.raises(CodecError):
        encode(object())


def test_unsupported_array_dtype_raises():
    with pytest.raises(CodecError):
        encode(np.array(["a", "b"]))


def test_non_string_struct_key_raises():
    with pytest.raises(CodecError):
        encode({1: "x"})


def test_truncated_buffer_raises():
    blob = encode({"a": np.arange(100, dtype=np.float64)})
    with pytest.raises(CodecError):
        decode(blob[: len(blob) // 2])


def test_trailing_garbage_raises():
    with pytest.raises(CodecError):
        decode(encode(42) + b"\x00")


def test_bad_byteorder_marker():
    with pytest.raises(CodecError):
        decode(b"\x07\x02\x00\x00\x00\x00")


def test_describe():
    assert describe(np.zeros((2, 3), dtype=np.float32)) == "array[float32][2, 3]"
    assert describe({"b": 1, "a": 2}) == "struct{a,b}"
    assert describe([1, 2]) == "list[2]"
    assert describe(1.0) == "float"


def test_coerce_array_precision():
    arr = np.linspace(0, 1, 5, dtype=np.float64)
    out = coerce_array(arr, np.float32)
    assert out.dtype == np.float32
    ints = coerce_array(np.array([1.9, 2.1]), np.int32)
    assert ints.dtype == np.int32


def test_coerce_array_bad_target():
    with pytest.raises(CodecError):
        coerce_array(np.zeros(3), np.complex128)


# -- property tests -----------------------------------------------------------

json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(value=json_like, bo=st.sampled_from(["<", ">"]))
def test_property_roundtrip(value, bo):
    assert decode(encode(value, bo)) == value


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.floats(allow_nan=False, width=32), min_size=0, max_size=64),
    dtype=st.sampled_from([np.float32, np.float64]),
    bo=st.sampled_from(["<", ">"]),
)
def test_property_array_roundtrip(data, dtype, bo):
    arr = np.array(data, dtype=dtype)
    out = decode(encode(arr, bo))
    assert out.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(out, arr)


# -- approx_size: the type-dispatched walk == the isinstance chain ----------


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 70000


class _Tagged(str):
    """A str subclass that has a ``__dict__``: must cost as a str."""


class _Bag(dict):
    """A dict subclass with attributes: must cost as a dict."""


class _Message:
    def __init__(self, **fields):
        self.__dict__.update(fields)


class _Slotted:
    __slots__ = ("x",)


def _tagged(text):
    out = _Tagged(text)
    out.note = "ignored"
    return out


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True)
    | st.text(max_size=12)  # mostly non-ASCII
    | st.text(alphabet="abcxyz_", max_size=12)
    | st.binary(max_size=12)
    | st.binary(max_size=12).map(bytearray)
    | st.binary(max_size=12).map(memoryview)
    | st.sampled_from(
        [np.bool_(True), np.int8(-3), np.uint16(9), np.int64(2**40), np.float16(0.5),
         np.float32(1.5), np.float64(2.5), np.longdouble(3.5), np.complex128(1j),
         _Colour.RED, _Colour.BLUE, _Slotted(), object(), _Message, 3 + 4j]
    )
    | st.text(max_size=6).map(_tagged)
    | st.lists(st.floats(allow_nan=False, width=32), max_size=6).map(np.array)
    | st.lists(st.integers(-9, 9), max_size=6).map(lambda x: np.array(x, dtype=np.int32))
)
_keys = st.text(max_size=6) | st.integers(-5, 5) | st.booleans() | st.text(max_size=4).map(_tagged)
_any_value = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_keys, children, max_size=4)
    | st.dictionaries(_keys, children, max_size=3).map(_Bag)
    | st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=5), children,
                      max_size=4).map(lambda d: _Message(**d))
    | st.frozensets(st.integers(-9, 9) | st.text(max_size=4), max_size=4).map(set),
    max_leaves=14,
)


@settings(max_examples=300, deadline=None)
@given(value=_any_value)
def test_property_approx_size_equals_reference_chain(value):
    assert approx_size(value) == approx_size_reference(value)


def test_approx_size_sees_a_message_mutate():
    # no per-object memo: the same object re-sized after a field changed
    msg = _Message(name="g", value=1.5)
    before = approx_size(msg)
    msg.value = "a considerably longer value"
    assert approx_size(msg) == approx_size_reference(msg) > before


# -- schema sizes: each schema-priced message == the isinstance chain --------

_texts = st.text(max_size=12) | st.text(alphabet="abcxyz_", max_size=12)
_CONTROL = sorted(control._STEERING.values(), key=lambda cls: cls.__name__)


@st.composite
def _control_messages(draw):
    cls = draw(st.sampled_from(_CONTROL))
    return cls(**{f.name: draw(_texts | _any_value) for f in fields(cls)})


@st.composite
def _envelopes(draw):
    body = draw(st.dictionaries(_keys, _any_value, max_size=4))
    fault = draw(st.just("") | _texts | _any_value)
    return envelope(draw(_texts), draw(_texts), body, fault=fault)


def test_every_steering_message_and_the_envelope_are_schema_priced():
    assert type(envelope("s", "op")) is Envelope
    assert {*_CONTROL, Envelope} <= set(SCHEMA_SIZERS)


@settings(max_examples=400, deadline=None)
@given(msg=_control_messages() | _envelopes())
def test_property_schema_size_equals_reference_chain(msg):
    assert SCHEMA_SIZERS[type(msg)](msg) == approx_size_reference(msg)
    assert wire_size(msg) == approx_size_reference(msg)


def _relaid_envelopes():
    """Envelopes whose layout changed after they were built."""
    extra = envelope("s", "op", {"x": 1})
    extra["trace"] = "abc"
    lost = envelope("s", "op")
    del lost["fault"]
    lost["faults"] = ""
    headless = envelope("s", "op")
    headless["header"] = ["s", "op"]
    renamed = envelope("s", "op")
    del renamed["header"]["operation"]
    renamed["header"]["op"] = "op"
    foreign_ns = envelope("s", "op")
    foreign_ns["ns"] = "".join(ENVELOPE_NS)  # an equal string, another object
    moved_ns = envelope("s", "op")
    moved_ns["ns"] = "repro-ogsa/2.0-draft"
    return [extra, lost, headless, renamed, foreign_ns, moved_ns]


def _relaid_messages():
    """Control messages whose attributes are not exactly their fields."""
    extra = control.Ack(3, True, "Stop")
    extra.note = "late"
    swapped = control.SetParam("g", 1.5)
    del swapped.sender
    swapped.origin = "somewhere"
    return [extra, swapped]


@pytest.mark.parametrize("msg", _relaid_envelopes() + _relaid_messages())
def test_a_relaid_schema_message_is_sized_by_the_reference_chain(msg):
    assert SCHEMA_SIZERS[type(msg)](msg) == approx_size_reference(msg)


def test_a_schema_priced_message_is_resized_at_every_send():
    ack = control.Ack(3, True, "GetStatus")
    env = envelope("s", "invoke", {"name": "g"})
    before = wire_size(ack), wire_size(env)
    ack.result = {"step": 7, "observables": {"ä": 0.5}}
    env["body"]["value"] = "a considerably longer value"
    env["header"]["operation"] = "invoke-again"
    after = wire_size(ack), wire_size(env)
    assert after == (approx_size_reference(ack), approx_size_reference(env))
    assert after[0] > before[0] and after[1] > before[1]
