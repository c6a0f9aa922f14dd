"""The OGSA steering service (Figure 2's central box).

"The steering client, i.e. the part that can be integrated into the
collaborative environment, contacts a steering service which will
actually orchestrate the details of the steering" (section 2.2).

The service fronts one :class:`~repro.steering.api.SteeredApplication`
over a duplex control link (typically a network connection to the
machine the simulation runs on).  A pump process continuously ingests
acks and status reports from the application; invocations that need an
answer wait on per-sequence futures with a timeout, so a dead application
faults the *service call*, never the container.
"""

from __future__ import annotations

from typing import Any

from repro.des import TIMED_OUT
from repro.errors import OgsaError
from repro.ogsa.service import GridService, operation
from repro.steering.api import pump
from repro.steering.control import (
    Ack,
    GetStatus,
    Pause,
    Resume,
    SetParam,
    StatusReport,
    Stop,
)


class SteeringService(GridService):
    """Grid service fronting one steered application."""

    def __init__(
        self,
        service_id: str,
        app_link,
        application_name: str = "",
        reply_timeout: float = 10.0,
    ) -> None:
        super().__init__(service_id)
        self.app_link = app_link
        self.reply_timeout = reply_timeout
        self._seq = 0
        #: seq -> (des Event, wants_status)
        self._waiters: dict[int, Any] = {}
        self.service_data["application"] = application_name
        self.service_data["steered_parameters"] = []

    def attached(self, container, now: float) -> None:
        super().attached(container, now)
        self.env.process(self._pump())

    # -- ingest loop --------------------------------------------------------------

    def _pump(self):
        # A method so tests/reference_pump.py can swap in its polling oracle.
        return pump(self.env, self.app_link, self._ingest)

    def _ingest(self, msg) -> bool:
        """Ingest one message from the application; True on its Stop ack."""
        if isinstance(msg, Ack):
            entry = self._waiters.pop(msg.seq, None)
            if entry is not None and not entry[0].triggered:
                entry[0].succeed(msg)
            return msg.ok and msg.command == "Stop"
        if isinstance(msg, StatusReport):
            self.service_data["steered_parameters"] = sorted(msg.parameters)
            # Status replies also answer pending GetStatus waiters.
            for seq, entry in list(self._waiters.items()):
                if entry[1]:
                    del self._waiters[seq]
                    if not entry[0].triggered:
                        entry[0].succeed(msg)
        return False

    def _command(self, msg, wants_status: bool = False):
        """Generator -> Ack/StatusReport: send a command, await its reply."""
        self._seq += 1
        msg.seq = self._seq
        msg.sender = self.service_id
        waiter = self.env.event()
        self._waiters[self._seq] = (waiter, wants_status)
        self.app_link.send(msg)
        reply = yield self.env.first(waiter, self.reply_timeout)
        if reply is not TIMED_OUT:
            return reply
        self._waiters.pop(msg.seq, None)
        raise OgsaError(
            f"application did not reply to {type(msg).__name__} within "
            f"{self.reply_timeout}s"
        )

    # -- operations --------------------------------------------------------------

    @operation
    def set_parameter(self, name: str, value: Any):
        """Generator: steer one parameter; returns the applied value."""
        ack = yield from self._command(SetParam(name=name, value=value))
        if not ack.ok:
            raise OgsaError(f"set_parameter rejected: {ack.error}")
        return ack.result

    @operation
    def pause(self):
        ack = yield from self._command(Pause())
        return ack.ok

    @operation
    def resume(self):
        ack = yield from self._command(Resume())
        return ack.ok

    @operation
    def stop(self):
        ack = yield from self._command(Stop())
        return ack.ok

    @operation
    def get_status(self):
        """Generator -> dict form of the application's StatusReport."""
        report = yield from self._command(GetStatus(), wants_status=True)
        return {
            "step": report.step,
            "time": report.time,
            "observables": report.observables,
            "parameters": report.parameters,
            "paused": report.paused,
        }
