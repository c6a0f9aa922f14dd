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
    TimeoutExpired,
)
from repro.visit.messages import (
    ConnectAck,
    ConnectRequest,
    DataRequest,
    DataResponse,
    DataSend,
    VisitClose,
    decode_visit,
    encode_visit,
)


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
        env = self.host.env
        deadline = env.now + timeout
        try:
            conn = yield from self.host.connect(
                self.server_host, self.port, timeout=timeout
            )
        except (NetworkError, TimeoutExpired) as exc:
            self.last_error = str(exc)
            self.stats["connects_failed"] += 1
            return False
        conn.send(
            encode_visit(
                ConnectRequest(self.password, self.name), self.byteorder
            )
        )
        try:
            blob = yield from conn.recv(timeout=max(0.0, deadline - env.now))
            ack = decode_visit(blob)
        except (NetworkError, TimeoutExpired) as exc:
            conn.close()
            self.last_error = str(exc)
            self.stats["connects_failed"] += 1
            return False
        if not isinstance(ack, ConnectAck) or not ack.ok:
            conn.close()
            self.last_error = getattr(ack, "reason", "bad handshake reply")
            self.stats["connects_failed"] += 1
            return False
        self._conn = conn
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

    def send(self, tag: int, payload: Any, timeout: Optional[float] = None):
        """Generator -> bool.  Push data to the visualization.

        Sending is buffered by the transport and never waits on the
        network; the only failure mode is "not connected", which returns
        False immediately — zero cost to the simulation.
        """
        del timeout  # sends cannot block in this transport; kept for API parity
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
        parameters); bounded by the timeout."""
        timeout = self.default_timeout if timeout is None else timeout
        env = self.host.env
        deadline = env.now + timeout
        if not self.connected or self._conn is None or self._conn.closed:
            self.stats["requests_failed"] += 1
            return False, None
        self._seq += 1
        seq = self._seq
        try:
            self._conn.send(encode_visit(DataRequest(tag, seq=seq), self.byteorder))
        except ChannelClosed:
            self.connected = False
            self.stats["requests_failed"] += 1
            return False, None
        while True:
            remaining = deadline - env.now
            if remaining <= 0:
                self.stats["requests_failed"] += 1
                self.last_error = f"request tag={tag} timed out after {timeout}s"
                return False, None
            try:
                blob = yield from self._conn.recv(timeout=remaining)
            except TimeoutExpired:
                self.stats["requests_failed"] += 1
                self.last_error = f"request tag={tag} timed out after {timeout}s"
                return False, None
            except (ChannelClosed, NetworkError) as exc:
                self.connected = False
                self.stats["requests_failed"] += 1
                self.last_error = str(exc)
                return False, None
            msg = decode_visit(blob)
            if isinstance(msg, DataResponse) and msg.seq == seq:
                if msg.ok:
                    self.stats["requests_ok"] += 1
                    return True, msg.payload
                self.stats["requests_failed"] += 1
                self.last_error = msg.reason
                return False, None
            if isinstance(msg, VisitClose):
                self.connected = False
                self.stats["requests_failed"] += 1
                return False, None
            # Stale response from an earlier timed-out request: skip it.

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
        # Block until the server acknowledges this very message.
        while True:
            blob = yield from conn.recv(timeout=None)
            msg = decode_visit(blob)
            if isinstance(msg, DataResponse) and msg.seq == seq:
                return msg.ok
