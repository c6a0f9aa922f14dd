"""Visualization-side VISIT server.

"The visualization acts as a server that dispatches the simulation's
requests" (section 3.2).  The server owns:

* *providers*: per-tag callables producing the data a simulation
  ``request`` asks for (steering parameters, thresholds...);
* *received*: per-tag stores of data the simulation pushed, with an
  optional ``on_data`` callback into the visualization pipeline;
* transparent data conversion — the codec already returns native byte
  order, and ``convert_arrays_to`` optionally downcasts received arrays
  (e.g. float64 -> float32 for the renderer) so the simulation never
  converts anything.

``response_delay`` and ``dead`` simulate the slow / crashed visualization
whose harmlessness to the simulation is VISIT's core claim.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import ChannelClosed, TimeoutExpired, VisitError
from repro.wire.codec import coerce_array
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


class VisitServer:
    """Accepts VISIT clients and dispatches their requests."""

    def __init__(
        self,
        host,
        port: int,
        password: str,
        name: str = "visualization",
        byteorder: str = "<",
        response_delay: float = 0.0,
        ack_sends: bool = False,
        convert_arrays_to: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.password = password
        self.name = name
        self.byteorder = byteorder
        #: artificial processing delay per request (the "slow viz" knob)
        self.response_delay = response_delay
        #: echo a DataResponse for every DataSend (the blocking baseline
        #: protocol needs acknowledgements; plain VISIT never acks sends)
        self.ack_sends = ack_sends
        self.convert_arrays_to = convert_arrays_to
        self.providers: dict[int, Callable[[], Any]] = {}
        self.received: dict[int, list] = defaultdict(list)
        self.on_data: Optional[Callable[[int, Any], None]] = None
        self.dead = False
        self.clients_served = 0
        self.auth_failures = 0

    # -- configuration -------------------------------------------------------

    def provide(self, tag: int, provider: Callable[[], Any]) -> None:
        """Register the data source answering requests for ``tag``."""
        self.providers[tag] = provider

    def latest(self, tag: int) -> Any:
        items = self.received.get(tag)
        if not items:
            raise VisitError(f"no data received under tag {tag}")
        return items[-1]

    def kill(self) -> None:
        """Simulate a crash: stop answering anything."""
        self.dead = True

    # -- processes ------------------------------------------------------------

    def start(self) -> None:
        """Begin listening and spawn the accept loop."""
        self.host.serve(self.port, self._serve)

    def _serve(self, conn):
        env = self.host.env
        try:
            blob = yield from conn.recv(timeout=30.0)
        except (TimeoutExpired, ChannelClosed):
            conn.close()
            return
        msg = decode_visit(blob)
        if not isinstance(msg, ConnectRequest) or msg.password != self.password:
            self.auth_failures += 1
            conn.send(encode_visit(ConnectAck(False, "bad password"), self.byteorder))
            conn.close()
            return
        if self.dead:
            conn.close()
            return
        conn.send(encode_visit(ConnectAck(True, server_name=self.name), self.byteorder))
        self.clients_served += 1
        while True:
            try:
                blob = yield from conn.recv(timeout=None)
            except ChannelClosed:
                return
            if self.dead:
                # A crashed visualization: never answer again.
                continue
            msg = decode_visit(blob)
            if isinstance(msg, DataSend):
                payload = self._convert(msg.payload)
                self.received[msg.tag].append(payload)
                if self.on_data is not None:
                    self.on_data(msg.tag, payload)
                if self.ack_sends:
                    if self.response_delay > 0:
                        yield env.timeout(self.response_delay)
                    conn.send(
                        encode_visit(
                            DataResponse(msg.tag, msg.seq, True), self.byteorder
                        )
                    )
            elif isinstance(msg, DataRequest):
                if self.response_delay > 0:
                    yield env.timeout(self.response_delay)
                provider = self.providers.get(msg.tag)
                if provider is None:
                    conn.send(
                        encode_visit(
                            DataResponse(
                                msg.tag, msg.seq, False,
                                reason=f"no provider for tag {msg.tag}",
                            ),
                            self.byteorder,
                        )
                    )
                else:
                    conn.send(
                        encode_visit(
                            DataResponse(msg.tag, msg.seq, True, payload=provider()),
                            self.byteorder,
                        )
                    )
            elif isinstance(msg, VisitClose):
                conn.close()
                return

    # -- conversion --------------------------------------------------------------

    def _convert(self, payload: Any) -> Any:
        """Server-side precision conversion (the simulation never converts)."""
        if self.convert_arrays_to is None:
            return payload
        target = self.convert_arrays_to
        if isinstance(payload, np.ndarray):
            return coerce_array(payload, target)
        if isinstance(payload, dict):
            return {k: self._convert(v) for k, v in payload.items()}
        if isinstance(payload, list):
            return [self._convert(v) for v in payload]
        return payload
