"""Collaborative steering session: master token, fan-out.

Exactly the vbroker semantics of section 3.3, expressed at the steering
layer: "a 'multiplexer' that simply sends all VISIT send-requests to all
participating visualizations, ensuring that everyone views the same data.
Receive-requests are only sent to a 'master' visualization, so that only
that master is able to actively steer the application.  The master-role
can be moved between the [participants] allowing for a coordinated
cooperative steering."
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NotMaster, SteeringError
from repro.steering.control import COMMAND_TYPES, Ack, SampleMsg
from repro.visit.token import MasterToken


class CollaborativeSession:
    """Sits between an application and N participant clients.

    One duplex link faces the application (``app_link``); each participant
    joins with their own link.  ``pump()`` moves traffic: samples and
    status from the app fan out to everyone; commands pass through only
    from the master, others get an error ack (policy ``reject``) or are
    silently dropped (policy ``drop``).
    """

    def __init__(self, app_link, reject_policy: str = "reject") -> None:
        if reject_policy not in ("reject", "drop"):
            raise SteeringError("reject_policy must be 'reject' or 'drop'")
        self.app_link = app_link
        self.reject_policy = reject_policy
        #: participants (name -> link) and the master
        self._token = MasterToken()

    # -- membership -----------------------------------------------------------

    def join(self, name: str, link) -> None:
        if name in self._token.members:
            raise SteeringError(f"participant {name!r} already joined")
        self._token.join(name, link)

    def leave(self, name: str) -> None:
        # A departing master's token goes to the longest-standing observer.
        if self._token.leave(name) is None:
            raise SteeringError(f"unknown participant {name!r}")

    @property
    def master(self) -> Optional[str]:
        return self._token.holder

    @property
    def master_handovers(self) -> int:
        return self._token.handovers

    def participants(self) -> list[str]:
        return list(self._token.members)

    def pass_master(self, from_name: str, to_name: str) -> None:
        """Coordinated hand-over of the steering token."""
        if self._token.holder != from_name:
            raise NotMaster(f"{from_name!r} does not hold the master token")
        if not self._token.pass_to(to_name):
            raise SteeringError(f"unknown participant {to_name!r}")

    # -- traffic ------------------------------------------------------------

    def pump(self) -> dict:
        """Move queued traffic once; returns counters for this pass."""
        stats = {"fanned_out": 0, "forwarded": 0, "rejected": 0, "replies": 0}
        links = self._token.members
        master = self._token.holder

        # App -> participants: samples fan out to all; command replies
        # (acks, status) go only to the master, who issued the commands.
        while True:
            ok, msg = self.app_link.poll()
            if not ok:
                break
            if isinstance(msg, SampleMsg):
                for link in links.values():
                    link.send(msg)
                stats["fanned_out"] += 1
            else:
                # Command replies route to the current master.
                if master is not None:
                    links[master].send(msg)
                stats["replies"] += 1

        # Participants -> app: master passes, observers bounce.
        for name, link in list(links.items()):
            while True:
                ok, msg = link.poll()
                if not ok:
                    break
                if isinstance(msg, COMMAND_TYPES) and name == master:
                    self.app_link.send(msg)
                    stats["forwarded"] += 1
                    continue
                stats["rejected"] += 1
                if isinstance(msg, COMMAND_TYPES) and self.reject_policy == "reject":
                    link.send(
                        Ack(
                            getattr(msg, "seq", -1),
                            False,
                            type(msg).__name__,
                            error=f"{name} is an observer; master is {master!r}",
                        )
                    )
        return stats
