"""Simulation-side VISIT client.

Every public operation is a DES generator that resolves within its
timeout — "all operations (like opening a connection, sending data to be
visualized or receiving new parameters) have to be initiated by the
simulation and are guaranteed to complete (or fail) after a user-specified
timeout" (section 3.2).  On failure the client records the error and
degrades: sends become no-ops until a reconnect succeeds, so the
simulation keeps running at full speed with a dead visualization — the
behaviour the VISIT-T bench quantifies against a blocking baseline.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import (
    ChannelClosed,
    NetworkError,
    ProtocolError,
    TimeoutExpired,
    VisitError,
)
from repro.visit.messages import DataRequest, DataSend, VisitClose, encode_visit
from repro.visit.protocol import await_response, open_visit


class VisitClient:
    """The lean, no-external-dependencies simulation-side interface."""

    def __init__(
        self,
        host,
        server_host: str,
        port: int,
        password: str,
        name: str = "simulation",
        byteorder: str = "<",
        default_timeout: float = 0.5,
    ) -> None:
        self.host = host
        self.server_host = server_host
        self.port = port
        self.password = password
        self.name = name
        self.byteorder = byteorder
        self.default_timeout = default_timeout
        self._conn = None
        self._seq = 0
        self.connected = False
        self.last_error: Optional[str] = None
        self.stats = {
            "sends_ok": 0,
            "sends_dropped": 0,
            "requests_ok": 0,
            "requests_failed": 0,
            "connects_failed": 0,
        }

    # -- connection -----------------------------------------------------------

    def connect(self, timeout: Optional[float] = None):
        """Generator -> bool.  Bounded connect + password handshake."""
        timeout = self.default_timeout if timeout is None else timeout
        try:
            self._conn = yield from open_visit(
                self.host, self.server_host, self.port, self.password, self.name,
                self.byteorder, timeout,
            )
        except (NetworkError, TimeoutExpired, ProtocolError, VisitError) as exc:
            self.last_error = str(exc)
            self.stats["connects_failed"] += 1
            return False
        self.connected = True
        self.last_error = None
        return True

    def close(self) -> None:
        if self._conn is not None and not self._conn.closed:
            try:
                self._conn.send(encode_visit(VisitClose("client closing"), self.byteorder))
            except ChannelClosed:
                pass
            self._conn.close()
        self.connected = False
        self._conn = None

    # -- data operations -----------------------------------------------------

    def send(self, tag: int, payload: Any):
        """Generator -> bool.  Push data to the visualization.

        Sending is buffered by the transport and never waits on the
        network; the only failure mode is "not connected", which returns
        False immediately — zero cost to the simulation.
        """
        if not self.connected or self._conn is None or self._conn.closed:
            self.stats["sends_dropped"] += 1
            return False
        self._seq += 1
        try:
            self._conn.send(
                encode_visit(DataSend(tag, payload, seq=self._seq), self.byteorder)
            )
        except ChannelClosed:
            self.connected = False
            self.stats["sends_dropped"] += 1
            return False
        self.stats["sends_ok"] += 1
        return True
        yield  # pragma: no cover - makes this a generator for API symmetry

    def request(self, tag: int, timeout: Optional[float] = None):
        """Generator -> (ok, payload).  Ask the server for data (steering
        parameters); bounded by the timeout.  A connection that closes or
        carries a frame that is not a ``DataResponse`` is dropped."""
        timeout = self.default_timeout if timeout is None else timeout
        if not self.connected or self._conn is None or self._conn.closed:
            self.stats["requests_failed"] += 1
            return False, None
        self._seq += 1
        conn = self._conn
        try:
            conn.send(encode_visit(DataRequest(tag, seq=self._seq), self.byteorder))
            reply = yield from await_response(conn, self._seq, self.host.env.now + timeout)
        except (NetworkError, ProtocolError) as exc:
            conn.close()
            self.connected = False
            return self._request_failed(str(exc))
        if reply is None:
            return self._request_failed(f"request tag={tag} timed out after {timeout}s")
        if not reply.ok:
            return self._request_failed(reply.reason)
        self.stats["requests_ok"] += 1
        return True, reply.payload

    def _request_failed(self, error: str) -> tuple[bool, None]:
        self.stats["requests_failed"] += 1
        self.last_error = error
        return False, None

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"VisitClient({self.name} -> {self.server_host}:{self.port}, {state})"


class BlockingClientBaseline:
    """The anti-pattern VISIT was designed against: a client whose data
    push *waits for a server acknowledgement with no timeout*.

    Exists purely as the baseline for the VISIT-T bench: with a slow or
    dead server, the simulation's wall-clock per step grows without bound,
    while :class:`VisitClient` stays bounded by the user timeout.
    """

    def __init__(self, host, server_host: str, port: int, password: str) -> None:
        self._inner = VisitClient(host, server_host, port, password, name="blocking")

    def connect(self):
        ok = yield from self._inner.connect(timeout=1e9)
        return ok

    def send(self, tag: int, payload: Any):
        """Generator -> bool.  Send and wait (forever) for the echo ack."""
        if not self._inner.connected:
            return False
        conn = self._inner._conn
        self._inner._seq += 1
        seq = self._inner._seq
        conn.send(
            encode_visit(DataSend(tag, payload, seq=seq), self._inner.byteorder)
        )
        reply = yield from await_response(conn, seq, deadline=None)
        return reply.ok
