"""User-facing steering client.

The "steering client, i.e. the part that can be integrated into the
collaborative environment" (section 2.2).  Poll-driven like everything
else: commands go out with sequence numbers; :meth:`drain` ingests acks,
status reports and samples whenever the caller (or the DES pump) decides.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import SteeringError
from repro.steering.control import (
    Ack,
    GetStatus,
    Pause,
    Resume,
    SampleMsg,
    SetParam,
    StatusReport,
    Stop,
)


class SteeringClient:
    """One steerer attached to an application (directly or via services)."""

    def __init__(self, link, name: str = "steerer") -> None:
        self.link = link
        self.name = name
        self._seq = 0
        self.acks: dict[int, Ack] = {}
        self.last_status: Optional[StatusReport] = None
        self.samples: list[SampleMsg] = []
        self.sample_limit = 64

    # -- outgoing commands ---------------------------------------------------

    def _send(self, msg) -> int:
        self._seq += 1
        msg.seq = self._seq
        msg.sender = self.name
        self.link.send(msg)
        return self._seq

    def set_parameter(self, name: str, value: Any) -> int:
        return self._send(SetParam(name=name, value=value))

    def pause(self) -> int:
        return self._send(Pause())

    def resume(self) -> int:
        return self._send(Resume())

    def stop(self) -> int:
        return self._send(Stop())

    def request_status(self) -> int:
        return self._send(GetStatus())

    # -- incoming traffic ------------------------------------------------------

    def drain(self) -> int:
        """Ingest everything queued on the link; returns message count."""
        count = 0
        while True:
            ok, msg = self.link.poll()
            if not ok:
                return count
            count += 1
            if isinstance(msg, Ack):
                self.acks[msg.seq] = msg
            elif isinstance(msg, StatusReport):
                self.last_status = msg
            elif isinstance(msg, SampleMsg):
                self.samples.append(msg)
                if len(self.samples) > self.sample_limit:
                    del self.samples[: -self.sample_limit]
            else:
                raise SteeringError(f"client received unexpected {msg!r}")

    def ack_for(self, seq: int) -> Optional[Ack]:
        return self.acks.get(seq)

    def latest_sample(self) -> Optional[SampleMsg]:
        return self.samples[-1] if self.samples else None
