"""``_kind``-tagged dataclass messages <-> plain dicts.

VISIT's messages and the steering protocol's travel as a struct whose
first key ``_kind`` names the class and whose other keys are its fields
in declaration order, read through :func:`dataclasses.fields` (so
slotted dataclasses encode too).  Decoding refuses, as
:class:`~repro.errors.ProtocolError`, an unknown kind, missing or extra
fields, and a wrong-typed value in a field annotated ``int``, ``bool``,
``str``, ``float`` or ``dict``, so a hostile ``{"_kind": "DataSend",
"tag": [1]}`` stops here, not deep inside a server.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from repro.errors import ProtocolError

#: annotation -> accepted runtime types (annotations are strings under
#: ``from __future__ import annotations``)
_CHECKED = {"int": int, "bool": bool, "str": str, "float": (int, float), "dict": dict}


class TaggedCodec:
    """One message set: its classes by name and their field layout."""

    def __init__(self, label: str, *classes: type) -> None:
        self.label = label
        self._types = {cls.__name__: cls for cls in classes}
        self._fields = {cls: tuple(f.name for f in fields(cls)) for cls in classes}
        self._checks = {
            cls: tuple((f.name, f.type) for f in fields(cls) if f.type in _CHECKED)
            for cls in classes
        }

    def to_wire(self, msg: Any) -> dict:
        """Dataclass -> wire dict with a ``_kind`` discriminator."""
        names = self._fields.get(type(msg))
        if names is None:
            raise ProtocolError(f"not a {self.label} message: {msg!r}")
        body = {"_kind": type(msg).__name__}
        for name in names:
            body[name] = getattr(msg, name)
        return body

    def from_wire(self, body: Any) -> Any:
        """Wire dict -> dataclass instance."""
        if not isinstance(body, dict) or "_kind" not in body:
            raise ProtocolError(f"malformed {self.label} message")
        kind = body["_kind"]
        cls = self._types.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ProtocolError(f"unknown {self.label} message kind {kind!r}")
        kwargs = {k: v for k, v in body.items() if k != "_kind"}
        for name, annotation in self._checks[cls]:
            if name in kwargs and not isinstance(kwargs[name], _CHECKED[annotation]):
                raise ProtocolError(
                    f"{kind}.{name} must be {annotation}, got {kwargs[name]!r:.80}"
                )
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ProtocolError(f"bad fields for {kind}: {exc}") from None
