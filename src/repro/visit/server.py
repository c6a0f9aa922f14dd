"""Visualization-side VISIT server.

"The visualization acts as a server that dispatches the simulation's
requests" (section 3.2).  The server owns:

* *providers*: per-tag callables producing the data a simulation
  ``request`` asks for (steering parameters, thresholds...);
* *received*: per-tag stores of data the simulation pushed, with an
  optional ``on_data`` callback into the visualization pipeline;
* transparent data conversion — the codec already returns native byte
  order, so the simulation never converts anything.

``response_delay`` and ``dead`` simulate the slow / crashed visualization
whose harmlessness to the simulation is VISIT's core claim.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Optional

from repro.visit.messages import DataResponse, DataSend
from repro.visit.protocol import VisitService


class VisitServer(VisitService):
    """Accepts VISIT clients and dispatches their requests."""

    def __init__(
        self,
        host,
        port: int,
        password: str,
        name: str = "visualization",
        response_delay: float = 0.0,
        ack_sends: bool = False,
    ) -> None:
        super().__init__(host, port, password)
        self.name = name
        #: artificial processing delay per request (the "slow viz" knob)
        self.response_delay = response_delay
        #: echo a DataResponse for every DataSend (the blocking baseline
        #: protocol needs acknowledgements; plain VISIT never acks sends)
        self.ack_sends = ack_sends
        self.providers: dict[int, Callable[[], Any]] = {}
        self.received: dict[int, list] = defaultdict(list)
        self.on_data: Optional[Callable[[int, Any], None]] = None

    # -- configuration -------------------------------------------------------

    def provide(self, tag: int, provider: Callable[[], Any]) -> None:
        """Register the data source answering requests for ``tag``."""
        self.providers[tag] = provider

    def kill(self) -> None:
        """Simulate a crash: stop answering anything."""
        self.dead = True

    # -- answering ------------------------------------------------------------

    def _answer(self, conn, msg):
        if isinstance(msg, DataSend):
            self.received[msg.tag].append(msg.payload)
            if self.on_data is not None:
                self.on_data(msg.tag, msg.payload)
            if not self.ack_sends:
                return
        if self.response_delay > 0:
            yield self.host.env.timeout(self.response_delay)
        provider = self.providers.get(msg.tag)
        if isinstance(msg, DataSend):
            reply = DataResponse(msg.tag, msg.seq, True)
        elif provider is None:
            reply = DataResponse(msg.tag, msg.seq, False, reason=f"no provider for tag {msg.tag}")
        else:
            reply = DataResponse(msg.tag, msg.seq, True, payload=provider())
        self._send(conn, reply)
