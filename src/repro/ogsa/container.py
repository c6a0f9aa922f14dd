"""OGSI::Lite — the lightweight hosting environment (section 2.3).

Deploys :class:`~repro.ogsa.service.GridService` instances at one
host:port, dispatches envelope-addressed invocations to them, reaps
expired instances, and answers handle-resolution queries for its own
services.  Faults travel back inside the envelope; the caller decides
what to raise.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ChannelClosed, OgsaError, OgsaTimeout, ServiceNotFound, TimeoutExpired
from repro.ogsa.handles import GridServiceHandle, GridServiceReference
from repro.ogsa.service import GridService
from repro.ogsa.soap import envelope, open_envelope


class OgsiLiteContainer:
    """One hosting environment on one simulated host."""

    def __init__(self, host, port: int, authority: Optional[str] = None,
                 reap_interval: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.authority = authority or f"{host.name}:{port}"
        self.reap_interval = reap_interval
        self._services: dict[str, GridService] = {}
        self.faults_returned = 0
        self.reaped = 0
        self._listener = None
        self._started = False
        self._reaper_started = False
        #: accepted server-side connections, severed on a crash
        self._conns: list = []

    # -- deployment --------------------------------------------------------------

    def deploy(self, service: GridService) -> GridServiceReference:
        if service.service_id in self._services:
            raise OgsaError(f"service id {service.service_id!r} already deployed")
        self._services[service.service_id] = service
        service.attached(self, self.host.env.now)
        handle = GridServiceHandle(self.authority, service.service_id)
        return GridServiceReference(
            handle, self.host.name, self.port, tuple(service.interface())
        )

    def undeploy(self, service_id: str) -> None:
        if service_id not in self._services:
            raise ServiceNotFound(f"no service {service_id!r} in this container")
        del self._services[service_id]

    def service(self, service_id: str) -> GridService:
        svc = self._services.get(service_id)
        if svc is None:
            raise ServiceNotFound(f"no service {service_id!r} in this container")
        return svc

    def deployed(self) -> list[str]:
        return sorted(self._services)

    # -- processes ------------------------------------------------------------------

    def start(self) -> None:
        self._listener = self.host.serve(self.port, self._accept)
        self._started = True
        if not self._reaper_started:
            self._reaper_started = True
            self.host.env.process(self._reaper())

    def _accept(self, conn):
        # Tracked at accept time, not when _serve first runs, so a crash
        # in the same instant still severs the connection.
        self._conns.append(conn)
        return self._serve(conn)

    def stop(self) -> None:
        """Crash/drain the container: stop accepting and sever every
        established service connection, so clients notice immediately
        instead of waiting out invoke timeouts.  Deployed service
        instances keep their state — that is what migration moves."""
        if self._listener is not None:
            self._listener.close()
        for conn in self._conns:
            conn.close()
        self._conns.clear()

    def restart(self) -> None:
        """Bring a stopped container back up on its port (idempotent)."""
        if not self.alive:
            self.start()

    @property
    def alive(self) -> bool:
        """True while the container's listener is open on its host."""
        return self._listener is not None and self._listener.open

    @property
    def dead(self) -> bool:
        """Started and then stopped — distinct from never-started, which
        unit tests use for pure object-level wiring."""
        return self._started and not self.alive

    def _reaper(self):
        env = self.host.env
        while True:
            yield env.timeout(self.reap_interval)
            for sid in list(self._services):
                if self._services[sid].expired(env.now):
                    del self._services[sid]
                    self.reaped += 1

    @staticmethod
    def _reply(conn, payload) -> None:
        """Send unless the connection died under us (container crash mid-
        request): the reply is simply lost, like the process it came from."""
        try:
            conn.send(payload)
        except ChannelClosed:
            pass

    def _serve(self, conn):
        try:
            yield from self._serve_loop(conn)
        finally:
            # Drop the bookkeeping reference once the conversation ends,
            # so _conns tracks *open* connections, not history.
            try:
                self._conns.remove(conn)
            except ValueError:
                pass  # stop() already cleared the list

    def _serve_loop(self, conn):
        while True:
            try:
                msg = yield from conn.recv(timeout=None)
            except ChannelClosed:
                return
            if conn.closed:
                return  # crashed between delivery and dispatch
            try:
                service_id, op, body, _ = open_envelope(msg)
            except OgsaError as exc:
                self.faults_returned += 1
                self._reply(conn, envelope("?", "?", fault=str(exc)))
                continue
            svc = self._services.get(service_id)
            if svc is None or svc.expired(self.host.env.now):
                self.faults_returned += 1
                self._reply(
                    conn,
                    envelope(service_id, op,
                             fault=f"no such service {service_id!r}"),
                )
                continue
            try:
                result = yield from svc.dispatch(op, body)
            except OgsaError as exc:
                self.faults_returned += 1
                self._reply(conn, envelope(service_id, op, fault=str(exc)))
                continue
            except Exception as exc:  # service bug: fault, don't crash
                self.faults_returned += 1
                self._reply(
                    conn,
                    envelope(service_id, op,
                             fault=f"{type(exc).__name__}: {exc}"),
                )
                continue
            self._reply(conn, envelope(service_id, op, body={"result": result}))


#: seconds a service connection waits to connect, and for each reply
SERVICE_TIMEOUT = 30.0


class ServiceConnection:
    """Client-side helper: invoke operations on services in one container."""

    def __init__(self, host, container_host: str, port: int) -> None:
        self.host = host
        self.container_host = container_host
        self.port = port
        self._conn = None

    def open(self):
        """Generator: establish the connection."""
        self._conn = yield from self.host.connect(
            self.container_host, self.port, timeout=SERVICE_TIMEOUT
        )
        return self

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def invoke(self, service_id: str, op: str, **args):
        """Generator -> result; raises OgsaError on faults, OgsaTimeout on no reply."""
        if self._conn is None or self._conn.closed:
            raise OgsaError("service connection is not open")
        self._conn.send(envelope(service_id, op, body=args))
        try:
            reply = yield from self._conn.recv(timeout=SERVICE_TIMEOUT)
        except TimeoutExpired:
            raise OgsaTimeout(
                f"invoke {service_id}.{op} timed out after {SERVICE_TIMEOUT}s"
            ) from None
        _sid, _op, body, fault = open_envelope(reply)
        if fault:
            raise OgsaError(fault)
        return body.get("result")
