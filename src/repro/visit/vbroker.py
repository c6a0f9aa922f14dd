"""The vbroker: VISIT's collaborative multiplexer (section 3.3).

"[T]he simulation data has to be sent to all visualization applications
... a 'multiplexer' that simply sends all VISIT send-requests to all
participating visualizations, ensuring that everyone views the same data.
Receive-requests are only sent to a 'master' visualization, so that only
that master is able to actively steer the application.  The master-role
can be moved ... allowing for a coordinated cooperative steering.  This
functionality has been implemented in an application (the vbroker) that
is part of the standard VISIT distribution."

The broker impersonates a VISIT *server* toward the simulation and a
VISIT *client* toward each participating visualization.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ChannelClosed, TimeoutExpired, VisitError
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


class _Downstream:
    """Broker-side handle for one participating visualization."""

    def __init__(self, name: str, server_host: str, port: int) -> None:
        self.name = name
        self.server_host = server_host
        self.port = port
        self.conn = None
        self.sends_forwarded = 0
        self.requests_served = 0


class VBroker:
    """One simulation in, k visualizations out, one master."""

    def __init__(
        self,
        host,
        port: int,
        password: str,
        byteorder: str = "<",
        request_timeout: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.password = password
        self.byteorder = byteorder
        self.request_timeout = request_timeout
        self._downstream: dict[str, _Downstream] = {}
        self._master: Optional[str] = None
        self.fanout_messages = 0
        self._listener = None

    # -- membership --------------------------------------------------------

    def add_visualization(self, name: str, server_host: str, port: int):
        """Generator: connect the broker to a participating visualization.

        The first participant becomes master.
        """
        if name in self._downstream:
            raise VisitError(f"visualization {name!r} already participating")
        ds = _Downstream(name, server_host, port)
        conn = yield from self.host.connect(server_host, port, timeout=5.0)
        conn.send(
            encode_visit(
                ConnectRequest(self.password, f"vbroker:{name}"), self.byteorder
            )
        )
        blob = yield from conn.recv(timeout=5.0)
        ack = decode_visit(blob)
        if not isinstance(ack, ConnectAck) or not ack.ok:
            conn.close()
            raise VisitError(f"visualization {name!r} refused the broker")
        ds.conn = conn
        self._downstream[name] = ds
        if self._master is None:
            self._master = name
        return ds

    def remove_visualization(self, name: str) -> None:
        ds = self._downstream.pop(name, None)
        if ds is None:
            raise VisitError(f"unknown visualization {name!r}")
        if ds.conn is not None:
            ds.conn.close()
        if self._master == name:
            self._master = next(iter(self._downstream), None)

    def prune_dead(self) -> list[str]:
        """Drop participants whose connection has died; returns their
        names.  If the master was among them the token moves to the next
        live participant (the removal rule above)."""
        dead = [
            name
            for name, ds in self._downstream.items()
            if ds.conn is None or ds.conn.closed
        ]
        for name in dead:
            self.remove_visualization(name)
        return dead

    @property
    def master(self) -> Optional[str]:
        return self._master

    def pass_master(self, to_name: str) -> None:
        if to_name not in self._downstream:
            raise VisitError(f"unknown visualization {to_name!r}")
        self._master = to_name

    def participants(self) -> list[str]:
        return list(self._downstream)

    @property
    def alive(self) -> bool:
        """True while the broker's listener is open on its host.

        A stopped (or never-started) broker cannot take new sessions;
        :class:`~repro.fleet.brokerpool.BrokerPool` skips it at placement
        time.
        """
        return self._listener is not None and self._listener.open

    # -- processes ---------------------------------------------------------------

    def start(self) -> None:
        self._listener = self.host.serve(self.port, self._serve_sim)

    def stop(self) -> None:
        """Close the listener and drop every downstream connection.

        The broker host has crashed or been drained; sessions placed on
        it must be re-placed elsewhere.
        """
        if self._listener is not None:
            self._listener.close()
        for name in list(self._downstream):
            self.remove_visualization(name)

    def _serve_sim(self, conn):
        """Impersonate a VISIT server toward the simulation."""
        try:
            blob = yield from conn.recv(timeout=30.0)
        except (TimeoutExpired, ChannelClosed):
            conn.close()
            return
        msg = decode_visit(blob)
        if not isinstance(msg, ConnectRequest) or msg.password != self.password:
            conn.send(encode_visit(ConnectAck(False, "bad password"), self.byteorder))
            conn.close()
            return
        conn.send(encode_visit(ConnectAck(True, server_name="vbroker"), self.byteorder))
        while True:
            try:
                blob = yield from conn.recv(timeout=None)
            except ChannelClosed:
                return
            msg = decode_visit(blob)
            if isinstance(msg, DataSend):
                # Fan out to every participant: everyone views the same data.
                self.fanout_messages += 1
                for ds in self._downstream.values():
                    if ds.conn is not None and not ds.conn.closed:
                        ds.conn.send(encode_visit(msg, self.byteorder))
                        ds.sends_forwarded += 1
            elif isinstance(msg, DataRequest):
                response = yield from self._ask_master(msg)
                conn.send(encode_visit(response, self.byteorder))
            elif isinstance(msg, VisitClose):
                conn.close()
                return

    def _ask_master(self, request: DataRequest):
        """Generator -> DataResponse.  Receive-requests go to the master only."""
        master = self._downstream.get(self._master) if self._master else None
        if master is None or master.conn is None or master.conn.closed:
            return DataResponse(
                request.tag, request.seq, False, reason="no master visualization"
            )
        master.conn.send(encode_visit(request, self.byteorder))
        env = self.host.env
        deadline = env.now + self.request_timeout
        while True:
            remaining = deadline - env.now
            if remaining <= 0:
                return DataResponse(
                    request.tag, request.seq, False,
                    reason=f"master {master.name!r} did not answer",
                )
            try:
                blob = yield from master.conn.recv(timeout=remaining)
            except (TimeoutExpired, ChannelClosed):
                return DataResponse(
                    request.tag, request.seq, False,
                    reason=f"master {master.name!r} did not answer",
                )
            reply = decode_visit(blob)
            if isinstance(reply, DataResponse) and reply.seq == request.seq:
                master.requests_served += 1
                return reply
            # Stale response from an earlier timed-out request: keep waiting.
