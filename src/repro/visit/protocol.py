"""The VISIT protocol's decisions, each written once: the receive path
(:func:`recv_visit`), the server end (:class:`VisitService`), the client
handshake (:func:`open_visit`) and the bounded wait for a reply
(:func:`await_response`; section 3.2: every operation completes or fails
after a user-specified timeout).  A frame that does not decode is a
:class:`~repro.errors.ProtocolError`, never a crash.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import (
    ChannelClosed,
    CodecError,
    ProtocolError,
    ReproError,
    TimeoutExpired,
    VisitError,
)
from repro.visit.messages import (
    ConnectAck,
    ConnectRequest,
    DataRequest,
    DataResponse,
    DataSend,
    decode_visit,
    encode_visit,
)


def recv_visit(conn, timeout: Optional[float]):
    """Generator -> the next VISIT message on ``conn``.  Raises what
    ``conn.recv`` raises, and :class:`ProtocolError` for any frame that
    is not a VISIT message."""
    blob = yield from conn.recv(timeout=timeout)
    if not isinstance(blob, bytes):
        raise ProtocolError(f"VISIT frames are bytes, got {type(blob).__name__}")
    try:
        return decode_visit(blob)
    except CodecError as exc:
        raise ProtocolError(f"undecodable VISIT frame: {exc}") from None


def open_visit(host, server_host: str, port: int, password: str, client_name: str,
               byteorder: str, timeout: float):
    """Generator -> an authenticated connection, within ``timeout``.
    Raises the transport's errors, :class:`ProtocolError` for a reply that
    does not decode and :class:`VisitError` for a refusal, having closed
    the connection."""
    env = host.env
    deadline = env.now + timeout
    conn = yield from host.connect(server_host, port, timeout=timeout)
    conn.send(encode_visit(ConnectRequest(password, client_name), byteorder))
    try:
        ack = yield from recv_visit(conn, max(0.0, deadline - env.now))
        if not isinstance(ack, ConnectAck) or not ack.ok:
            raise VisitError(getattr(ack, "reason", "bad handshake reply"))
    except ReproError:
        conn.close()
        raise
    return conn


def await_response(conn, seq: int, deadline: Optional[float]):
    """Generator -> the ``DataResponse`` answering ``seq``, or None once
    the virtual-time ``deadline`` passes (None: wait forever).  Stale
    responses to earlier, timed-out requests are skipped; raises
    :class:`ChannelClosed`, and :class:`ProtocolError` for any other frame.
    """
    env = conn.host.env
    while True:
        timeout = None if deadline is None else deadline - env.now
        if timeout is not None and timeout <= 0:
            return None
        try:
            msg = yield from recv_visit(conn, timeout)
        except TimeoutExpired:
            return None
        if not isinstance(msg, DataResponse):
            raise ProtocolError(f"expected a DataResponse, got {type(msg).__name__}")
        if msg.seq == seq:
            return msg


#: the byte order every VISIT server writes; a client picks its own, and
#: each end's decoder reads either
SERVER_BYTEORDER = "<"


class VisitService:
    """The server end of a VISIT connection, under the visualization
    server, the vbroker and the UNICORE extension's proxy.

    It decides everything but the answer: a first frame that is not a
    ``ConnectRequest`` with the right password gets a refusing
    ``ConnectAck`` and a close; after it, ``VisitClose`` and any frame
    that does not decode or is of a kind no server receives close the
    connection.  Subclasses set ``name`` (sent in the ``ConnectAck``) and
    answer ``DataSend`` and ``DataRequest`` in the generator :meth:`_answer`.
    """

    name = "visualization"

    def __init__(self, host, port: int, password: str) -> None:
        self.host = host
        self.port = port
        self.password = password
        #: a crashed server: it still authenticates, then never answers
        self.dead = False
        self.clients_served = 0
        self.auth_failures = 0
        self._listener = None

    def start(self) -> None:
        """Begin listening; each accepted connection runs :meth:`_serve`."""
        self._listener = self.host.serve(self.port, self._serve)

    def _send(self, conn, msg) -> None:
        conn.send(encode_visit(msg, SERVER_BYTEORDER))

    def _serve(self, conn):
        try:
            hello = yield from recv_visit(conn, timeout=30.0)
        except (TimeoutExpired, ChannelClosed):
            conn.close()
            return
        except ProtocolError:
            hello = None
        if not isinstance(hello, ConnectRequest) or hello.password != self.password:
            self.auth_failures += 1
            reason = "bad password" if isinstance(hello, ConnectRequest) else "not a ConnectRequest"
            self._send(conn, ConnectAck(False, reason))
            conn.close()
            return
        if self.dead:
            conn.close()
            return
        self._send(conn, ConnectAck(True, server_name=self.name))
        self.clients_served += 1
        while True:
            try:
                msg = yield from recv_visit(conn, timeout=None)
            except ChannelClosed:
                return
            except ProtocolError:
                msg = None
            if self.dead:
                continue  # a crashed visualization never answers again
            if not isinstance(msg, (DataSend, DataRequest)):
                conn.close()
                return
            yield from self._answer(conn, msg)

    def _answer(self, conn, msg):
        """Generator: handle one ``DataSend`` or ``DataRequest``."""
        raise NotImplementedError
