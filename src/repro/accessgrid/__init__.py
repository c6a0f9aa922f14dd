"""Access Grid: venues, media streams, shared desktops, VizServer.

The collaboration fabric of the paper: "Access Grid technologies link
separate locations into a virtual environment, effectively re-instating
the audio and visual inputs on which human beings are so dependent"
(section 5).  Reproduced pieces:

* :mod:`repro.accessgrid.venue` — the venue server, including the
  HLRS-style per-room shared-application startup info (section 4.6);
* :mod:`repro.accessgrid.media` — vic/rat-like RTP streams over
  multicast;
* :mod:`repro.accessgrid.vnc` — the shared desktop used to distribute
  steering clients ("Sharing the steering client requires the use of
  vnc", section 2.4);
* :mod:`repro.accessgrid.vizserver` — OpenGL VizServer-style remote
  rendering with collaborative session sharing;
* :mod:`repro.accessgrid.node` — one participating site.
"""

from repro.accessgrid.venue import VenueServer, Venue, AppSession
from repro.accessgrid.media import MediaProducer, MediaReceiver
from repro.accessgrid.vnc import VncServer, VncClient
from repro.accessgrid.vizserver import VizServerSession
from repro.accessgrid.node import AGNode

__all__ = [
    "VenueServer",
    "Venue",
    "AppSession",
    "MediaProducer",
    "MediaReceiver",
    "VncServer",
    "VncClient",
    "VizServerSession",
    "AGNode",
]
