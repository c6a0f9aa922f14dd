"""VISIT message model: tagged, typed, self-describing.

"VISIT uses an MPI-like data transport mechanism based on messages that
are distinguished via tags ...  The client either sends data along with a
header describing its content or requests data from the server by sending
a header that describes what is requested."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ProtocolError
from repro.wire.codec import decode, describe, encode
from repro.wire.fields import decode_tagged, encode_tagged


@dataclass
class ConnectRequest:
    """Open a VISIT session; password travels in clear text (section 3.2)."""

    password: str
    client_name: str = "simulation"


@dataclass
class ConnectAck:
    ok: bool
    reason: str = ""
    server_name: str = "visualization"


@dataclass
class DataSend:
    """Client pushes data: tag + self-describing payload."""

    tag: int
    payload: Any = None
    seq: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.description:
            self.description = describe(self.payload)


@dataclass
class DataRequest:
    """Client asks the server for data under a tag (steering parameters)."""

    tag: int
    seq: int = 0


@dataclass
class DataResponse:
    tag: int
    seq: int
    ok: bool
    payload: Any = None
    reason: str = ""


@dataclass
class VisitClose:
    reason: str = ""


#: the VISIT messages by their ``_kind`` tag
_VISIT = {
    cls.__name__: cls
    for cls in (ConnectRequest, ConnectAck, DataSend, DataRequest, DataResponse, VisitClose)
}


def encode_visit(msg: Any, byteorder: str = "<") -> bytes:
    """VISIT message -> wire bytes (the byte order is the *sender's*
    native order; the receiver converts, per the VISIT rule)."""
    return encode(encode_tagged(_VISIT, msg, "_kind", ProtocolError, "VISIT message"), byteorder)


def decode_visit(blob: bytes) -> Any:
    """Wire bytes -> VISIT message (:class:`CodecError` for bytes that do
    not decode, :class:`ProtocolError` for a struct that is no VISIT
    message; receive through :func:`repro.visit.protocol.recv_visit`)."""
    return decode_tagged(_VISIT, decode(blob), "_kind", ProtocolError, "VISIT message")
