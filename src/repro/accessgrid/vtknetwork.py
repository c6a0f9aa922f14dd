"""vtkNetwork-style framebuffer multicasting (paper section 2.4).

"Collaborative visualization is also achieved by means of the vtkNetwork
extension to vtk provided by the Futures Lab, Argonne National
Laboratory...  This package provides a specialised vtk rendering class
which streams updates to its framebuffer to a multicast address.  Remote
users can then view the broadcast visualization through a standard vic
session.  The vtkNetwork classes also allow for collaboration by end
users, by sending any remote events back to the visualization application
using a patched version of vic."

:class:`VtkNetworkRenderer` wraps a renderer; every ``publish_frame``
multicasts the (delta-compressed) framebuffer into a media group, so any
:class:`~repro.accessgrid.media.MediaReceiver`-style subscriber can view
it.  The return channel for remote events (the "patched vic") is an
optional unicast event mailbox — the paper chose VizServer over this
path precisely because patching vic was clunky, and the trade-off is
testable here.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.des.resources import Mailbox
from repro.net.multicast import MulticastGroup
from repro.viz.compress import compress_frame
from repro.viz.framebuffer import FrameBuffer
from repro.viz.render import Renderer


class VtkNetworkRenderer:
    """A renderer whose framebuffer streams to a multicast address."""

    def __init__(
        self,
        host,
        group: MulticastGroup,
        width: int = 320,
        height: int = 240,
        key_frame_every: int = 30,
    ) -> None:
        self.host = host
        self.group = group
        self.renderer = Renderer(width, height)
        #: every Nth frame is a full (non-delta) frame so late joiners sync
        self.key_frame_every = max(1, int(key_frame_every))
        self._prev: Optional[FrameBuffer] = None
        self.frames_published = 0
        self.bytes_published = 0
        #: remote events sent back by "patched vic" viewers
        self.event_mailbox = Mailbox(host.env)
        self.on_remote_event: Optional[Callable[[dict], None]] = None
        host.env.process(self._event_loop())

    def publish_frame(self) -> int:
        """Multicast the current framebuffer; returns wire bytes."""
        frame = self.renderer.fb
        is_key = self.frames_published % self.key_frame_every == 0
        blob = compress_frame(frame, previous=None if is_key else self._prev)
        self._prev = frame.copy()
        payload = {
            "seq": self.frames_published,
            "key": is_key,
            "frame": blob,
            "t": self.host.env.now,
        }
        self.group.send(self.host, payload, size=len(blob) + 64)
        self.frames_published += 1
        self.bytes_published += len(blob)
        return len(blob)

    def _event_loop(self):
        while True:
            event = yield self.event_mailbox.get()
            if self.on_remote_event is not None:
                self.on_remote_event(event)


class VicViewer:
    """A standard-vic viewer of a vtkNetwork stream.

    Reconstructs frames from the multicast feed; can only decode deltas
    after its first key frame (the joining-mid-stream reality).  With
    ``patched=True`` it may send events back — the collaboration mode the
    paper mentions but avoids.
    """

    def __init__(self, host, group: MulticastGroup, patched: bool = False) -> None:
        self.host = host
        self.mailbox = group.join(host)
        self.patched = patched
        self.current: Optional[FrameBuffer] = None
        self.frames_decoded = 0
        self.frames_skipped = 0
        host.env.process(self._consume())

    def _consume(self):
        from repro.viz.compress import decompress_frame

        while True:
            payload = yield self.mailbox.get()
            if not payload["key"] and self.current is None:
                self.frames_skipped += 1  # no baseline yet
                continue
            self.current = decompress_frame(
                payload["frame"],
                previous=None if payload["key"] else self.current,
            )
            self.frames_decoded += 1

    def send_event(self, renderer: VtkNetworkRenderer, event: dict) -> None:
        """The patched-vic back channel (unicast to the renderer host)."""
        if not self.patched:
            raise PermissionError(
                "a standard vic session cannot send events back; "
                "use patched=True (or VizServer, as the paper did)"
            )
        env = self.host.env
        link = renderer.host.network.link(self.host.name, renderer.host.name)
        deliver_at = link.reserve(128, env.now)
        env.timeout(deliver_at - env.now, dict(event)).callbacks.append(
            renderer.event_mailbox.deliver
        )
