"""Reference pump: the polling ``SteeringService._pump`` that ``src/`` ran
before the pump parked (PR 21), kept verbatim as the test-side oracle.

A polling pump burns one kernel event per 0.01 s of silence; the parked
pump (``repro.steering.api.parked_tick``) burns none, and is admissible
only because every report stays **byte-identical**: same poll instants,
and same order among pumps that share one.  ``tests/test_pump_polling_
equivalence.py`` runs whole fleets under both and compares
``report.to_dict()``.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import contextlib

from repro.ogsa.steering_service import SteeringService
from repro.steering.control import Ack, SampleMsg, StatusReport


def polling_pump(self):
    # The pump's poll cadence is observable: processing an ack chains
    # straight into the service reply and its link reservation, so
    # pumps sharing a poll instant must keep their stable relative
    # order.  It therefore polls (no event-saving parking) while the
    # application lives — but exits once the application acked Stop,
    # because its control loop has returned and the link is silent
    # forever after; polling to the run deadline would only burn
    # events.
    env = self.env
    link = self.app_link
    poll = link.poll
    app_done = False
    while True:
        progressed = False
        while True:
            ok, msg = poll()
            if not ok:
                break
            progressed = True
            if isinstance(msg, Ack):
                entry = self._waiters.pop(msg.seq, None)
                if entry is not None and not entry[0].triggered:
                    entry[0].succeed(msg)
                if msg.ok and msg.command == "Stop":
                    app_done = True
            elif isinstance(msg, StatusReport):
                self.last_status = msg
                self.service_data["steered_parameters"] = sorted(
                    msg.parameters
                )
                # Status replies also answer pending GetStatus waiters.
                for seq, entry in list(self._waiters.items()):
                    if entry[1]:
                        del self._waiters[seq]
                        if not entry[0].triggered:
                            entry[0].succeed(msg)
            elif isinstance(msg, SampleMsg):
                self.latest_sample = msg
                self.samples_seen += 1
        # Poll at a fine grain; the pump is cheap in virtual time.
        if progressed:
            yield env.timeout(0.0)
        elif app_done:
            return
        else:
            yield env.timeout(0.01)


@contextlib.contextmanager
def polling_steering_pumps():
    """Every ``SteeringService`` attached inside the block polls."""
    parked = SteeringService._pump
    SteeringService._pump = polling_pump
    try:
        yield
    finally:
        SteeringService._pump = parked
