"""vnc-style shared desktop.

"Sharing the steering client requires the use of vnc.  This is the active
mode of participating" (section 2.4); the UNICORE client and AVS control
panel are likewise "made available via vnc" (section 3.4).

Model: the server owns a framebuffer (the shared desktop).  Clients pull
updates (RFB-style framebuffer-update-request); the server answers with a
full frame first, then deltas against each client's last-acknowledged
frame.  Clients may send input events, which the server applies through a
host-side handler — that is how a remote collaborator drives the steering
GUI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ChannelClosed, VenueError
from repro.viz.compress import compress_frame, decompress_frame
from repro.viz.framebuffer import FrameBuffer
from repro.wire.fields import decode_tagged


@dataclass
class _UpdateRequest:
    pass


@dataclass
class _Input:
    event: dict


#: ``op`` -> client request class
_OPS = {"update_request": _UpdateRequest, "input": _Input}


class VncServer:
    """Shares one framebuffer with many clients."""

    def __init__(self, host, port: int, width: int = 320, height: int = 240) -> None:
        self.host = host
        self.port = port
        self.fb = FrameBuffer(width, height)
        #: called with each input event dict from any client
        self.on_input: Optional[Callable[[dict], None]] = None
        self.updates_served = 0
        self.input_events = 0
        self.bytes_served = 0

    def start(self) -> None:
        self.host.serve(self.port, self._serve)

    def _serve(self, conn):
        last_sent: Optional[FrameBuffer] = None
        while True:
            try:
                msg = yield from conn.recv(timeout=None)
            except ChannelClosed:
                return
            try:
                request = decode_tagged(_OPS, msg, "op", VenueError, "vnc request")
            except VenueError as exc:
                conn.send({"op": "denied", "error": str(exc)})
                continue
            if isinstance(request, _UpdateRequest):
                blob = compress_frame(self.fb, previous=last_sent)
                last_sent = self.fb.copy()
                self.updates_served += 1
                self.bytes_served += len(blob)
                conn.send({"op": "update", "frame": blob}, size=len(blob) + 64)
            else:
                self.input_events += 1
                if self.on_input is not None:
                    self.on_input(request.event)
                conn.send({"op": "input_ack"})


#: seconds a client waits to connect, and for each reply
CLIENT_TIMEOUT = 10.0


class VncClient:
    """One remote viewer/controller of a shared desktop."""

    def __init__(self, host, server_host: str, port: int) -> None:
        self.host = host
        self.server_host = server_host
        self.port = port
        self._conn = None
        self.local_fb: Optional[FrameBuffer] = None
        self._last: Optional[FrameBuffer] = None
        self.updates = 0

    def connect(self):
        self._conn = yield from self.host.connect(
            self.server_host, self.port, timeout=CLIENT_TIMEOUT
        )
        return True

    def request_update(self):
        """Generator -> the refreshed local framebuffer."""
        if self._conn is None:
            raise VenueError("vnc client is not connected")
        self._conn.send({"op": "update_request"}, size=64)
        reply = yield from self._conn.recv(timeout=CLIENT_TIMEOUT)
        fb = decompress_frame(reply["frame"], previous=self._last)
        self._last = fb.copy()
        self.local_fb = fb
        self.updates += 1
        return fb

    def send_input(self, event: dict):
        """Generator: deliver an input event (remote collaborator acting)."""
        if self._conn is None:
            raise VenueError("vnc client is not connected")
        self._conn.send({"op": "input", "event": dict(event)}, size=128)
        reply = yield from self._conn.recv(timeout=CLIENT_TIMEOUT)
        return reply.get("op") == "input_ack"
