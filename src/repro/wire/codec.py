"""Self-describing typed binary codec.

Supported value types (mirroring VISIT's data model):

* ``None``, ``bool``
* ``int`` (encoded as INT32 when it fits, INT64 otherwise)
* ``float`` (FLOAT64; FLOAT32 arrays keep their precision)
* ``str`` (UTF-8), ``bytes``
* ``numpy.ndarray`` of int32/int64/float32/float64 (any shape)
* ``dict`` with string keys ("user defined structures"), values recursive
* ``list``/``tuple`` of the above (decoded as list)

The encoder writes numeric payloads in a chosen byte order (``"<"`` or
``">"``); the *decoder* handles either transparently, which is where the
paper's "conversions are performed by the server so the simulation is
disturbed as little as possible" rule lives: simulations encode in native
order and never convert.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from typing import Any, Callable

import numpy as np

from repro.errors import CodecError

# -- type tags ---------------------------------------------------------------

T_NONE = 0x00
T_BOOL = 0x01
T_INT32 = 0x02
T_INT64 = 0x03
T_FLOAT64 = 0x04
T_STRING = 0x05
T_BYTES = 0x06
T_ARRAY = 0x07
T_STRUCT = 0x08
T_LIST = 0x09

_ARRAY_DTYPES = {
    0: np.dtype(np.int32),
    1: np.dtype(np.int64),
    2: np.dtype(np.float32),
    3: np.dtype(np.float64),
}
_ARRAY_CODES = {v: k for k, v in _ARRAY_DTYPES.items()}

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1

_BYTEORDER_BYTE = {"<": 0, ">": 1}
_BYTE_BYTEORDER = {0: "<", 1: ">"}


def encode(value: Any, byteorder: str = "<") -> bytes:
    """Encode ``value`` to a self-describing byte string.

    The first byte records the byte order used for all numeric payloads.
    """
    if byteorder not in _BYTEORDER_BYTE:
        raise CodecError(f"byteorder must be '<' or '>', got {byteorder!r}")
    parts = [bytes([_BYTEORDER_BYTE[byteorder]])]
    _encode_value(value, byteorder, parts)
    return b"".join(parts)


def _encode_value(value: Any, bo: str, parts: list[bytes]) -> None:
    if value is None:
        parts.append(bytes([T_NONE]))
    elif isinstance(value, bool):
        parts.append(bytes([T_BOOL, 1 if value else 0]))
    elif isinstance(value, (int, np.integer)):
        v = int(value)
        if _INT32_MIN <= v <= _INT32_MAX:
            parts.append(bytes([T_INT32]) + struct.pack(bo + "i", v))
        else:
            parts.append(bytes([T_INT64]) + struct.pack(bo + "q", v))
    elif isinstance(value, (float, np.floating)):
        parts.append(bytes([T_FLOAT64]) + struct.pack(bo + "d", float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        parts.append(bytes([T_STRING]) + struct.pack(bo + "I", len(raw)) + raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        parts.append(bytes([T_BYTES]) + struct.pack(bo + "I", len(raw)) + raw)
    elif isinstance(value, np.ndarray):
        _encode_array(value, bo, parts)
    elif isinstance(value, dict):
        items = list(value.items())
        parts.append(bytes([T_STRUCT]) + struct.pack(bo + "I", len(items)))
        for key, val in items:
            if not isinstance(key, str):
                raise CodecError(f"struct keys must be str, got {type(key).__name__}")
            raw = key.encode("utf-8")
            parts.append(struct.pack(bo + "I", len(raw)) + raw)
            _encode_value(val, bo, parts)
    elif isinstance(value, (list, tuple)):
        parts.append(bytes([T_LIST]) + struct.pack(bo + "I", len(value)))
        for item in value:
            _encode_value(item, bo, parts)
    else:
        raise CodecError(f"unsupported type {type(value).__name__}")


def _encode_array(arr: np.ndarray, bo: str, parts: list[bytes]) -> None:
    base = arr.dtype.newbyteorder("=")
    if base not in _ARRAY_CODES:
        raise CodecError(f"unsupported array dtype {arr.dtype}")
    if arr.ndim > 255:
        raise CodecError("array rank exceeds 255")
    code = _ARRAY_CODES[base]
    swapped = arr.astype(base.newbyteorder(bo), copy=False)
    parts.append(bytes([T_ARRAY, code, arr.ndim]))
    parts.append(struct.pack(bo + "I" * arr.ndim, *arr.shape))
    parts.append(np.ascontiguousarray(swapped).tobytes())


def decode(buf: bytes | bytearray | memoryview) -> Any:
    """Decode a byte string produced by :func:`encode` (any byte order)."""
    buf = memoryview(bytes(buf))
    if len(buf) < 1:
        raise CodecError("empty buffer")
    try:
        bo = _BYTE_BYTEORDER[buf[0]]
    except KeyError:
        raise CodecError(f"bad byte-order marker {buf[0]!r}") from None
    try:
        value, offset = _decode_value(buf, 1, bo)
    except (UnicodeDecodeError, RecursionError) as exc:
        # Hostile bytes: a non-UTF-8 string, or lists nested past the stack.
        raise CodecError(f"undecodable value: {exc}") from None
    if offset != len(buf):
        raise CodecError(f"{len(buf) - offset} trailing bytes after value")
    return value


def _take(buf: memoryview, offset: int, n: int) -> tuple[memoryview, int]:
    if offset + n > len(buf):
        raise CodecError("truncated buffer")
    return buf[offset : offset + n], offset + n


def _decode_value(buf: memoryview, offset: int, bo: str) -> tuple[Any, int]:
    tagbuf, offset = _take(buf, offset, 1)
    tag = tagbuf[0]
    if tag == T_NONE:
        return None, offset
    if tag == T_BOOL:
        raw, offset = _take(buf, offset, 1)
        return bool(raw[0]), offset
    if tag == T_INT32:
        raw, offset = _take(buf, offset, 4)
        return struct.unpack(bo + "i", raw)[0], offset
    if tag == T_INT64:
        raw, offset = _take(buf, offset, 8)
        return struct.unpack(bo + "q", raw)[0], offset
    if tag == T_FLOAT64:
        raw, offset = _take(buf, offset, 8)
        return struct.unpack(bo + "d", raw)[0], offset
    if tag == T_STRING:
        raw, offset = _take(buf, offset, 4)
        (n,) = struct.unpack(bo + "I", raw)
        raw, offset = _take(buf, offset, n)
        return bytes(raw).decode("utf-8"), offset
    if tag == T_BYTES:
        raw, offset = _take(buf, offset, 4)
        (n,) = struct.unpack(bo + "I", raw)
        raw, offset = _take(buf, offset, n)
        return bytes(raw), offset
    if tag == T_ARRAY:
        head, offset = _take(buf, offset, 2)
        code, ndim = head[0], head[1]
        if code not in _ARRAY_DTYPES:
            raise CodecError(f"bad array dtype code {code}")
        raw, offset = _take(buf, offset, 4 * ndim)
        shape = struct.unpack(bo + "I" * ndim, raw) if ndim else ()
        dtype = _ARRAY_DTYPES[code]
        count = 1
        for dim in shape:
            count *= dim
        raw, offset = _take(buf, offset, count * dtype.itemsize)
        arr = np.frombuffer(raw, dtype=dtype.newbyteorder(bo), count=count)
        # Return in native byte order: the *receiver* pays for conversion.
        return arr.astype(dtype, copy=True).reshape(shape), offset
    if tag == T_STRUCT:
        raw, offset = _take(buf, offset, 4)
        (n,) = struct.unpack(bo + "I", raw)
        out = {}
        for _ in range(n):
            raw, offset = _take(buf, offset, 4)
            (klen,) = struct.unpack(bo + "I", raw)
            raw, offset = _take(buf, offset, klen)
            key = bytes(raw).decode("utf-8")
            out[key], offset = _decode_value(buf, offset, bo)
        return out, offset
    if tag == T_LIST:
        raw, offset = _take(buf, offset, 4)
        (n,) = struct.unpack(bo + "I", raw)
        items = []
        for _ in range(n):
            item, offset = _decode_value(buf, offset, bo)
            items.append(item)
        return items, offset
    raise CodecError(f"unknown type tag {tag:#x}")


#: (type, field-name tuple) -> constant envelope bytes for dataclass-like
#: message objects: the struct overhead plus the cost of the field-name
#: strings.  Control traffic (SYN/ACK/steer acks, status requests) re-walks
#: identically-shaped messages thousands of times per run; only the field
#: *values* can change, so the envelope is computed once per shape.
_ENVELOPE_CACHE: dict[tuple, int] = {}


def approx_size_reference(value: Any) -> int:
    """The definition of :func:`approx_size`: one ``isinstance`` chain.

    Exact for codec-supported types; dataclass-like objects are costed as
    their ``__dict__`` plus a small envelope; anything else gets a nominal
    64 bytes.  :func:`approx_size` answers the common exact types without
    walking this chain and must agree with it on every value (the tests
    hold it to that); it lands here for everything else.
    """
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 5 + len(value)
    if isinstance(value, np.ndarray):
        return 16 + value.nbytes
    if isinstance(value, dict):
        return 5 + sum(
            approx_size_reference(str(k)) + approx_size_reference(v)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set)):
        return 5 + sum(approx_size_reference(v) for v in value)
    inner = getattr(value, "__dict__", None)
    if isinstance(inner, dict):
        # 16 (object envelope) + 5 (struct header) + per-key name costs
        # are constant per message shape; per-value costs are not.
        key = (value.__class__, tuple(inner))
        envelope = _ENVELOPE_CACHE.get(key)
        if envelope is None:
            envelope = 21 + sum(approx_size_reference(str(k)) for k in inner)
            _ENVELOPE_CACHE[key] = envelope
        return envelope + sum(approx_size_reference(v) for v in inner.values())
    return 64


#: exact type -> size, for the values whose size is their type's
_FIXED_SIZE: dict[type, int] = {type(None): 1, bool: 1, int: 9, float: 9}
_FIXED_SIZE.update(
    (np.dtype(code).type, 9) for code in np.typecodes["AllInteger"] + np.typecodes["Float"]
)

#: every type the reference chain tests before it looks for a ``__dict__``
_CHAIN_TYPES = (
    int, float, np.integer, np.floating, str, bytes, bytearray, memoryview,
    np.ndarray, dict, list, tuple, set,
)  # fmt: skip


def approx_size(value: Any) -> int:
    """Wire-size estimate that never fails.

    Used by the network layer to charge link time for payloads that
    travel as Python objects and have no schema sizer (see
    :data:`SCHEMA_SIZERS`), and by those sizers for a message's nested
    values.  Equal to :func:`approx_size_reference` on every value, but
    dispatches on ``type(value)``: fixed-size scalars are one
    dict lookup, and an exact ``str`` / ``dict`` / ``list`` / ``tuple`` /
    ``ndarray`` or a dataclass-like message is sized in one loop over its
    items that recurses only into nested containers.  Subclasses and
    everything rarer take the reference chain.  Nothing is remembered
    per object: messages are mutable.
    """
    tp = type(value)
    size = _FIXED_SIZE.get(tp)
    if size is not None:
        return size
    if tp is str:
        return 5 + (len(value) if value.isascii() else len(value.encode("utf-8")))
    if tp is dict:
        total = 5
        for k in value:
            if type(k) is not str:
                k = str(k)
            total += 5 + (len(k) if k.isascii() else len(k.encode("utf-8")))
        values = value.values()
    elif tp is list or tp is tuple:
        total = 5
        values = value
    elif tp is np.ndarray:
        return 16 + value.nbytes
    else:
        inner = getattr(value, "__dict__", None)
        if not isinstance(inner, dict) or isinstance(value, _CHAIN_TYPES):
            return approx_size_reference(value)
        key = (tp, tuple(inner))
        total = _ENVELOPE_CACHE.get(key)
        if total is None:
            total = _ENVELOPE_CACHE[key] = 21 + sum(
                approx_size_reference(str(k)) for k in inner
            )
        values = inner.values()
    for v in values:
        tv = type(v)
        size = _FIXED_SIZE.get(tv)
        if size is not None:
            total += size
        elif tv is str:
            total += 5 + (len(v) if v.isascii() else len(v.encode("utf-8")))
        else:
            total += approx_size(v)
    return total


#: exact message type -> its schema sizer: the size of its fixed layout
#: (struct headers, key or field names) costed once, plus the values that
#: can change, sized at every call.  :func:`repro.net.channel.wire_size`
#: looks a payload's exact type up here before it falls back to
#: :func:`approx_size`.  Each sizer equals :func:`approx_size_reference`
#: on every instance (the tests hold it to that), and, as there, nothing is
#: remembered per object.
SCHEMA_SIZERS: dict[type, Callable[[Any], int]] = {}


#: a field missing from an instance's ``__dict__``
_ABSENT = object()


def fields_sizer(cls: type) -> Callable[[Any], int]:
    """The schema sizer of a dataclass message type.

    Its layout — 21 (object envelope and struct header) plus the field
    names — is costed once from :func:`dataclasses.fields`; a call sizes
    only the field values.  An instance whose attributes are not exactly
    its fields is sized by the reference chain.
    """
    names = tuple(f.name for f in fields(cls))
    layout = 21 + sum(approx_size_reference(name) for name in names)
    count = len(names)

    def size(msg: Any) -> int:
        inner = msg.__dict__
        if len(inner) != count:
            return approx_size_reference(msg)
        total = layout
        for name in names:
            v = inner.get(name, _ABSENT)
            tv = type(v)
            fixed = _FIXED_SIZE.get(tv)
            if fixed is not None:
                total += fixed
            elif tv is str:
                total += 5 + (len(v) if v.isascii() else len(v.encode("utf-8")))
            elif v is _ABSENT:
                return approx_size_reference(msg)
            else:
                total += approx_size(v)
        return total

    return size


def describe(value: Any) -> str:
    """Short human-readable type description (for logs and registries)."""
    if isinstance(value, np.ndarray):
        return f"array[{value.dtype.name}]{list(value.shape)}"
    if isinstance(value, dict):
        return "struct{" + ",".join(sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return f"list[{len(value)}]"
    return type(value).__name__


def coerce_array(arr: np.ndarray, dtype) -> np.ndarray:
    """Precision / integer-float conversion, VISIT-server style.

    The server converts received data to whatever the *visualization*
    requested (e.g. float64 simulation data down to float32 for the
    renderer) so the simulation never spends cycles on it.
    """
    target = np.dtype(dtype)
    if target.newbyteorder("=") not in _ARRAY_CODES:
        raise CodecError(f"unsupported target dtype {target}")
    return arr.astype(target, copy=False)
