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

from repro.errors import VisitError
from repro.wire.codec import coerce_array
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
        convert_arrays_to: Optional[str] = None,
    ) -> None:
        super().__init__(host, port, password)
        self.name = name
        #: artificial processing delay per request (the "slow viz" knob)
        self.response_delay = response_delay
        #: echo a DataResponse for every DataSend (the blocking baseline
        #: protocol needs acknowledgements; plain VISIT never acks sends)
        self.ack_sends = ack_sends
        self.convert_arrays_to = convert_arrays_to
        self.providers: dict[int, Callable[[], Any]] = {}
        self.received: dict[int, list] = defaultdict(list)
        self.on_data: Optional[Callable[[int, Any], None]] = None

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

    # -- answering ------------------------------------------------------------

    def _answer(self, conn, msg):
        if isinstance(msg, DataSend):
            payload = self._convert(msg.payload)
            self.received[msg.tag].append(payload)
            if self.on_data is not None:
                self.on_data(msg.tag, payload)
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
