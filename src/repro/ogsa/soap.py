"""Minimal SOAP-style envelopes for service invocation.

The real OGSI::Lite spoke SOAP-over-HTTP; what matters structurally is the
envelope discipline: every message has a header (addressing, operation)
and a body, and faults are first-class.  An :class:`Envelope` is a dict,
so the wire codec carries it unchanged and every reader takes it as one;
its type only tells the network how to price it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import OgsaError
from repro.wire.codec import SCHEMA_SIZERS, approx_size, approx_size_reference

ENVELOPE_NS = "repro-ogsa/1.0"


class Envelope(dict):
    """``{"ns", "header": {"service", "operation"}, "body", "fault"}``,
    built by :func:`envelope`."""

    __slots__ = ()


def envelope(
    service: str,
    op: str,
    body: Optional[dict] = None,
    fault: str = "",
) -> Envelope:
    """Build an envelope addressed to ``service`` invoking ``op``."""
    return Envelope(
        ns=ENVELOPE_NS,
        header={"service": service, "operation": op},
        body=dict(body or {}),
        fault=fault,
    )


#: an envelope's fixed layout: its struct header and four key names, the
#: namespace, and the header's struct header and two key names
_LAYOUT_SIZE = (
    5
    + sum(approx_size_reference(key) for key in ("ns", "header", "body", "fault"))
    + approx_size_reference(ENVELOPE_NS)
    + 5
    + approx_size_reference("service")
    + approx_size_reference("operation")
)


def _envelope_size(msg: Envelope) -> int:
    """The wire size of an envelope: its layout plus the three strings and
    the body, sized at every send.  One whose layout changed after
    :func:`envelope` built it is sized by the reference chain."""
    header = msg.get("header")
    if (
        msg.get("ns") is not ENVELOPE_NS
        or type(header) is not dict
        or len(msg) != 4
        or len(header) != 2
    ):
        return approx_size_reference(msg)
    try:
        texts = (header["service"], header["operation"], msg["fault"])
        size = _LAYOUT_SIZE + approx_size(msg["body"])
    except KeyError:
        return approx_size_reference(msg)
    for text in texts:
        if type(text) is str and text.isascii():
            size += 5 + len(text)
        else:
            size += approx_size(text)
    return size


SCHEMA_SIZERS[Envelope] = _envelope_size


def open_envelope(msg: Any) -> tuple[str, str, dict, str]:
    """Validate and unpack an envelope -> (service, operation, body, fault).

    Checked by hand, not by :mod:`repro.wire.fields`: every steering op
    crosses an envelope, and two field decodes cost 6-8x these
    checks (DESIGN.md "Field decoder")."""
    if not isinstance(msg, dict) or msg.get("ns") != ENVELOPE_NS:
        raise OgsaError(f"not an OGSA envelope: {msg!r}")
    header = msg.get("header")
    if not isinstance(header, dict):
        raise OgsaError("envelope missing addressing header")
    service, operation = header.get("service"), header.get("operation")
    if not isinstance(service, str) or not isinstance(operation, str):
        raise OgsaError("envelope header must name a service and an operation as strings")
    body = msg.get("body")
    if not isinstance(body, dict):
        raise OgsaError("envelope body must be a struct")
    return service, operation, body, msg.get("fault", "")
