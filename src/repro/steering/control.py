"""The steering control protocol: commands, replies, sample messages.

Messages are plain dataclasses with a symmetric wire form (dicts through
:mod:`repro.wire.codec`) so the same protocol rides every transport in the
paper: direct links, VISIT receive-requests, the UNICORE proxy relay, and
OGSA service calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.errors import ProtocolError
from repro.wire.codec import SCHEMA_SIZERS, fields_sizer
from repro.wire.fields import decode_tagged, encode_tagged


@dataclass
class SetParam:
    """Change a steered parameter (the miscibility slider of section 2.2)."""

    name: str
    value: Any
    seq: int = 0
    sender: str = ""


@dataclass
class Pause:
    seq: int = 0
    sender: str = ""


@dataclass
class Resume:
    seq: int = 0
    sender: str = ""


@dataclass
class Stop:
    seq: int = 0
    sender: str = ""


@dataclass
class GetStatus:
    seq: int = 0
    sender: str = ""


@dataclass
class Ack:
    """Reply to a command: ok/error plus an optional result payload."""

    seq: int
    ok: bool
    command: str
    error: str = ""
    result: Any = None


@dataclass
class StatusReport:
    """Monitored values + steered-parameter snapshot, sent on request."""

    step: int
    time: float
    observables: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    paused: bool = False


@dataclass
class SampleMsg:
    """One emitted visualization sample (section 2.1: the simulation
    "periodically ... emits 'samples' for consumption by the
    visualization component")."""

    seq: int
    step: int
    data: dict = field(default_factory=dict)
    source: str = ""


COMMAND_TYPES = (SetParam, Pause, Resume, Stop, GetStatus)

#: the steering messages by their ``_kind`` tag
_STEERING = {cls.__name__: cls for cls in (*COMMAND_TYPES, Ack, StatusReport, SampleMsg)}
_TAGGED = {"tag": "_kind", "error": ProtocolError, "what": "steering message"}

#: dataclass -> wire dict with a ``_kind`` discriminator, and back
encode_message = partial(encode_tagged, _STEERING, **_TAGGED)
decode_message = partial(decode_tagged, _STEERING, **_TAGGED)

#: each message is priced from its schema: field names once, values per send
SCHEMA_SIZERS.update((cls, fields_sizer(cls)) for cls in _STEERING.values())
