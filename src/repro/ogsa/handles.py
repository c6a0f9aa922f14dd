"""Grid Service Handles (GSH) and their resolution to references (GSR).

OGSI separates the *permanent name* of a service instance (the handle)
from the *current binding* (the reference: where it actually lives right
now).  This indirection is what lets RealityGrid migrate services without
breaking clients — resolve again and you find the new location.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OgsaError, ServiceNotFound


@dataclass(frozen=True)
class GridServiceHandle:
    """Permanent name: ``gsh://<authority>/<service_id>``."""

    authority: str
    service_id: str

    def __str__(self) -> str:
        return f"gsh://{self.authority}/{self.service_id}"

    @classmethod
    def parse(cls, text: str) -> "GridServiceHandle":
        if not text.startswith("gsh://"):
            raise OgsaError(f"not a GSH: {text!r}")
        rest = text[len("gsh://") :]
        if "/" not in rest:
            raise OgsaError(f"GSH missing service id: {text!r}")
        authority, service_id = rest.split("/", 1)
        if not authority or not service_id:
            raise OgsaError(f"malformed GSH: {text!r}")
        return cls(authority, service_id)


@dataclass(frozen=True)
class GridServiceReference:
    """Current binding: the host/port of the hosting container."""

    handle: GridServiceHandle
    host: str
    port: int
    interface: tuple = ()


class HandleResolver:
    """Maps handles to their current references."""

    def __init__(self) -> None:
        self._bindings: dict[GridServiceHandle, GridServiceReference] = {}

    def bind(self, ref: GridServiceReference) -> None:
        self._bindings[ref.handle] = ref

    def handles(self) -> list[GridServiceHandle]:
        """Every currently-bound handle (registry-rebuild enumeration)."""
        return list(self._bindings)

    def resolve(self, handle: GridServiceHandle) -> GridServiceReference:
        ref = self._bindings.get(handle)
        if ref is None:
            raise ServiceNotFound(f"no binding for {handle}")
        return ref

    def rebind(self, handle: GridServiceHandle, host: str, port: int) -> None:
        """Point an existing handle at a new location (service migration)."""
        old = self.resolve(handle)
        self._bindings[handle] = GridServiceReference(
            handle, host, port, old.interface
        )
