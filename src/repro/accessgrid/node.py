"""An Access Grid node: one participating site.

Wraps a simulated host with the venue-side behaviours: enter a venue,
subscribe to its media (natively or via a bridge when the site lacks
multicast), and join shared application sessions.
"""

from __future__ import annotations

from typing import Optional

from repro.accessgrid.media import MediaReceiver
from repro.accessgrid.venue import Venue
from repro.errors import NetworkError, VenueError


class AGNode:
    """One site's presence in the Access Grid."""

    def __init__(self, host) -> None:
        self.host = host
        self.site_name = host.name
        self.venue: Optional[Venue] = None
        self.video_receiver: Optional[MediaReceiver] = None
        self.bridged = False
        self.app_sessions: list[str] = []

    @property
    def can_multicast(self) -> bool:
        return self.host.multicast and self.host.firewall.allow_multicast

    def enter(self, venue: Venue, bridge_host=None) -> dict:
        """Enter a venue and wire up media reception.

        Sites without native multicast need ``bridge_host`` (the venue
        grows a unicast bridge there on demand, per section 4.6).
        """
        if self.venue is not None:
            raise VenueError(f"{self.site_name!r} is already in a venue")
        info = venue.enter(self)
        self.venue = venue
        if self.can_multicast:
            box = venue.video.join(self.host)
        else:
            if bridge_host is None:
                venue.exit(self)
                self.venue = None
                raise NetworkError(
                    f"{self.site_name!r} has no native multicast; pass a "
                    "bridge_host to enter()"
                )
            bridge = venue.ensure_bridge(bridge_host)
            box = bridge.attach(self.host)
            self.bridged = True
        self.video_receiver = MediaReceiver(self.host, box, name=self.site_name)
        self.video_receiver.start()
        return info

    def leave(self) -> None:
        if self.venue is None:
            raise VenueError(f"{self.site_name!r} is not in a venue")
        if self.bridged and self.venue.bridge is not None:
            self.venue.bridge.detach(self.host)
        elif self.can_multicast:
            self.venue.video.leave(self.host)
        self.venue.exit(self)
        self.venue = None
        self.video_receiver = None
        self.bridged = False

    def join_app(self, session_id: str):
        if self.venue is None:
            raise VenueError("enter a venue first")
        session = self.venue.join_app_session(session_id, self.site_name)
        self.app_sessions.append(session.session_id)
        return session
