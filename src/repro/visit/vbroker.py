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

from repro.errors import ChannelClosed, ProtocolError, VisitError
from repro.visit.messages import DataRequest, DataResponse, DataSend
from repro.visit.protocol import SERVER_BYTEORDER, VisitService, await_response, open_visit
from repro.visit.token import MasterToken


#: seconds the broker waits for the master's answer to a receive-request
REQUEST_TIMEOUT = 2.0


class VBroker(VisitService):
    """One simulation in, k visualizations out, one master."""

    name = "vbroker"

    def __init__(self, host, port: int, password: str) -> None:
        super().__init__(host, port, password)
        #: participating visualizations (name -> connection) and the master
        self._token = MasterToken()
        self.fanout_messages = 0

    # -- membership --------------------------------------------------------

    def add_visualization(self, name: str, server_host: str, port: int):
        """Generator -> the broker's connection to a participating
        visualization.  The first participant becomes master."""
        if name in self._token.members:
            raise VisitError(f"visualization {name!r} already participating")
        conn = yield from open_visit(
            self.host, server_host, port, self.password, f"vbroker:{name}",
            SERVER_BYTEORDER, timeout=5.0,
        )
        self._token.join(name, conn)
        return conn

    def remove_visualization(self, name: str) -> None:
        conn = self._token.leave(name)
        if conn is None:
            raise VisitError(f"unknown visualization {name!r}")
        conn.close()

    def prune_dead(self) -> list[str]:
        """Drop participants whose connection has died; returns their
        names.  If the master was among them the token moves to the next
        live participant (the removal rule above)."""
        dead = [name for name, conn in self._token.members.items() if conn.closed]
        for name in dead:
            self.remove_visualization(name)
        return dead

    @property
    def master(self) -> Optional[str]:
        return self._token.holder

    def participants(self) -> list[str]:
        return list(self._token.members)

    @property
    def alive(self) -> bool:
        """True while the broker's listener is open on its host.

        A stopped (or never-started) broker cannot take new sessions;
        :class:`~repro.fleet.brokerpool.BrokerPool` skips it at placement
        time.
        """
        return self._listener is not None and self._listener.open

    # -- processes ---------------------------------------------------------------

    def stop(self) -> None:
        """Close the listener and drop every downstream connection.

        The broker host has crashed or been drained; sessions placed on
        it must be re-placed elsewhere.
        """
        if self._listener is not None:
            self._listener.close()
        for name in list(self._token.members):
            self.remove_visualization(name)

    def _answer(self, conn, msg):
        """Impersonate a VISIT server toward the simulation."""
        if isinstance(msg, DataSend):
            # Fan out to every participant: everyone views the same data.
            self.fanout_messages += 1
            for downstream in self._token.members.values():
                if not downstream.closed:
                    self._send(downstream, msg)
            return
        response = yield from self._ask_master(msg)
        self._send(conn, response)

    def _ask_master(self, request: DataRequest):
        """Generator -> DataResponse.  Receive-requests go to the master only."""
        master = self._token.holder
        conn = self._token.members.get(master)
        if conn is None or conn.closed:
            return DataResponse(
                request.tag, request.seq, False, reason="no master visualization"
            )
        self._send(conn, request)
        deadline = self.host.env.now + REQUEST_TIMEOUT
        try:
            reply = yield from await_response(conn, request.seq, deadline)
        except (ChannelClosed, ProtocolError):
            conn.close()
            reply = None
        if reply is None:
            return DataResponse(
                request.tag, request.seq, False, reason=f"master {master!r} did not answer"
            )
        return reply
