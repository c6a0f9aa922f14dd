"""vic/rat-like media streams over multicast.

"All participating sites who have native multicast enabled will be able
to view the visualization, this can be described as passive
collaboration" (section 2.4).  A producer pushes fixed-rate frames into a
multicast group; receivers track what arrives (and when), which gives the
FIG4 bench its media-plane numbers.
"""

from __future__ import annotations

from repro.net.multicast import MulticastGroup
from repro.util.stats import RunningStats


class MediaProducer:
    """Emits frames (video) or packets (audio) at a fixed rate."""

    def __init__(
        self,
        host,
        group: MulticastGroup,
        fps: float = 25.0,
        frame_bytes: int = 8_000,
        name: str = "vic",
    ) -> None:
        self.host = host
        self.group = group
        self.fps = fps
        self.frame_bytes = frame_bytes
        self.name = name
        self.frames_sent = 0
        self.stopped = False

    def start(self) -> None:
        self.host.env.process(self._produce())

    def stop(self) -> None:
        self.stopped = True

    def _produce(self):
        env = self.host.env
        interval = 1.0 / self.fps
        while not self.stopped:
            payload = {"src": self.name, "seq": self.frames_sent, "t": env.now}
            self.group.send(self.host, payload, size=self.frame_bytes)
            self.frames_sent += 1
            yield env.timeout(interval)


class MediaReceiver:
    """Consumes a stream from a group mailbox (native or bridged)."""

    def __init__(self, host, mailbox, name: str = "receiver") -> None:
        self.host = host
        self.mailbox = mailbox
        self.name = name
        self.frames_received = 0
        self.latency = RunningStats()
        self.last_seq: dict[str, int] = {}
        self.gaps = 0

    def start(self) -> None:
        self.host.env.process(self._consume())

    def _consume(self):
        env = self.host.env
        while True:
            frame = yield self.mailbox.get()
            self.frames_received += 1
            self.latency.add(env.now - frame["t"])
            src = frame["src"]
            prev = self.last_seq.get(src)
            if prev is not None and frame["seq"] != prev + 1:
                self.gaps += 1
            self.last_seq[src] = frame["seq"]
