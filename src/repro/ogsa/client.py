"""The OGSA steering client (the laptop of Figure 1, abstracted).

Workflow per section 2.3: contact the registry, choose the services
required, bind them (resolve handle -> container, open a connection), and
invoke.  One client can bind both the application-steering and the
visualization-steering service, which is exactly the FIG2 bench scenario.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ServiceNotFound
from repro.ogsa.container import ServiceConnection
from repro.ogsa.handles import GridServiceHandle, HandleResolver
from repro.ogsa.registry import REGISTRY_ID


class OgsaSteeringClient:
    """High-level steering client over the service fabric."""

    def __init__(
        self, host, resolver: HandleResolver, registry_host: str, registry_port: int
    ) -> None:
        self.host = host
        self.resolver = resolver
        self.registry_host = registry_host
        self.registry_port = registry_port
        self._registry_conn: Optional[ServiceConnection] = None
        self._bound: dict[str, tuple[ServiceConnection, str]] = {}

    # -- registry ------------------------------------------------------------

    def _registry(self):
        if self._registry_conn is None:
            conn = ServiceConnection(self.host, self.registry_host, self.registry_port)
            yield from conn.open()
            self._registry_conn = conn
        return self._registry_conn

    def find_services(self, **query):
        """Generator -> list of {handle, metadata} from the registry."""
        reg = yield from self._registry()
        result = yield from reg.invoke(REGISTRY_ID, "find", query=dict(query))
        return result

    # -- binding ---------------------------------------------------------------

    def bind(self, handle_str: str):
        """Generator: resolve + connect a service; returns its local name."""
        handle = GridServiceHandle.parse(handle_str)
        ref = self.resolver.resolve(handle)
        conn = ServiceConnection(self.host, ref.host, ref.port)
        yield from conn.open()
        self._bound[handle_str] = (conn, handle.service_id)
        return handle_str

    def unbind(self, handle_str: str) -> None:
        entry = self._bound.pop(handle_str, None)
        if entry is not None:
            entry[0].close()

    def rebind(self, handle_str: str):
        """Generator: drop the cached binding and resolve the GSH afresh.

        The client-side half of service migration (section 2.4): after a
        service moves containers the resolver points at the new location,
        and re-resolving the *same* handle reconnects there.  Also the
        recovery move after a container crash — the stale connection is
        discarded either way.
        """
        self.unbind(handle_str)
        result = yield from self.bind(handle_str)
        return result

    # -- invocation -----------------------------------------------------------------

    def invoke(self, handle_str: str, op: str, **args):
        """Generator -> result on a bound service."""
        entry = self._bound.get(handle_str)
        if entry is None:
            raise ServiceNotFound(f"{handle_str} is not bound; call bind() first")
        conn, service_id = entry
        result = yield from conn.invoke(service_id, op, **args)
        return result

    def close(self) -> None:
        for handle_str in list(self._bound):
            self.unbind(handle_str)
        if self._registry_conn is not None:
            self._registry_conn.close()
            self._registry_conn = None
