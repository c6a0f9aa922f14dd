"""Minimal SOAP-style envelopes for service invocation.

The real OGSI::Lite spoke SOAP-over-HTTP; what matters structurally is the
envelope discipline: every message has a header (addressing, operation)
and a body, and faults are first-class.  Envelopes are plain dicts so the
wire codec carries them unchanged.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import OgsaError

ENVELOPE_NS = "repro-ogsa/1.0"


def envelope(
    service: str,
    op: str,
    body: Optional[dict] = None,
    fault: str = "",
) -> dict:
    """Build an envelope addressed to ``service`` invoking ``op``."""
    return {
        "ns": ENVELOPE_NS,
        "header": {"service": service, "operation": op},
        "body": dict(body or {}),
        "fault": fault,
    }


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
