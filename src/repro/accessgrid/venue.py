"""The venue server: virtual rooms with media addresses and app sessions.

Section 4.6: "a special venue server compatible to Access Grid 1.2 has
been implemented that allows to start application sessions such as COVISE
consistently within the Access Grid group collaboration sessions.  This
venue server stores additional information on a per room basis which
allows the start-up of shared applications...  we added support for
unicast/multicast bridges and point to point sessions."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import VenueError
from repro.net.multicast import MulticastGroup, UnicastBridge
from repro.util.ids import IdAllocator


@dataclass
class AppSession:
    """Startup info for a shared application in a venue (e.g. COVISE)."""

    app_type: str
    session_id: str
    startup_info: dict = field(default_factory=dict)
    participants: list = field(default_factory=list)


class Venue:
    """One virtual room."""

    def __init__(self, server: "VenueServer", name: str) -> None:
        self.server = server
        self.name = name
        self._occupants: dict[str, object] = {}  # site name -> AGNode-ish
        self.video = MulticastGroup(server.network, f"{name}/video")
        self.audio = MulticastGroup(server.network, f"{name}/audio")
        self._app_sessions: dict[str, AppSession] = {}
        self._bridge: Optional[UnicastBridge] = None

    # -- occupancy ---------------------------------------------------------

    def enter(self, node) -> dict:
        """A site enters the venue; returns the media/bridge description."""
        if node.site_name in self._occupants:
            raise VenueError(f"{node.site_name!r} is already in {self.name!r}")
        self._occupants[node.site_name] = node
        return {
            "video": self.video.address,
            "audio": self.audio.address,
            "bridge": self._bridge is not None,
            "app_sessions": sorted(self._app_sessions),
        }

    # -- bridges (for firewalled / NAT / no-multicast sites) ------------------

    def ensure_bridge(self, bridge_host) -> UnicastBridge:
        if self._bridge is None:
            self._bridge = UnicastBridge(self.video, bridge_host)
        return self._bridge

    # -- shared applications -----------------------------------------------------

    def create_app_session(self, app_type: str, startup_info: dict) -> AppSession:
        sid = self.server._session_ids.next()
        session = AppSession(app_type, sid, dict(startup_info))
        self._app_sessions[sid] = session
        return session

    def join_app_session(self, session_id: str, site_name: str) -> AppSession:
        session = self._app_sessions.get(session_id)
        if session is None:
            raise VenueError(f"no app session {session_id!r} in {self.name!r}")
        if site_name not in self._occupants:
            raise VenueError(
                f"{site_name!r} must enter the venue before joining apps"
            )
        if site_name not in session.participants:
            session.participants.append(site_name)
        return session


class VenueServer:
    """Hosts the venues; one per collaboration community."""

    def __init__(self, network, host) -> None:
        self.network = network
        self.host = host
        self._venues: dict[str, Venue] = {}
        self._session_ids = IdAllocator("appsess")

    def create_venue(self, name: str) -> Venue:
        if name in self._venues:
            raise VenueError(f"venue {name!r} already exists")
        venue = Venue(self, name)
        self._venues[name] = venue
        return venue
