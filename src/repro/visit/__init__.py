"""VISIT: the VISualization Interface Toolkit (reproduction of section 3.2).

Design rules carried over from the paper:

* the *simulation is the client*, the *visualization is the server* —
  "unlike many other steering toolkits that work the opposite way";
* every operation is initiated by the simulation and is "guaranteed to
  complete (or fail) after a user-specified timeout", so a slow or dead
  visualization can never stall the simulation;
* MPI-like transport: messages carry integer *tags*; payloads are
  strings, ints, floats, structures and arrays of these; byte-order and
  precision conversion happens on the server side
  (:mod:`repro.wire.codec` implements exactly that data model);
* security is a cleartext connection password — VISIT's acknowledged
  weakness, which the UNICORE integration (:mod:`repro.unicore.visit_ext`)
  exists to fix;
* the ``vbroker`` multiplexer fans send-requests out to all participating
  visualizations and routes receive-requests to the *master* only.

Each rule has one home: :mod:`repro.visit.protocol` and, for the master
token every collaborative layer shares, :mod:`repro.visit.token`.
"""

from repro.visit.messages import (
    ConnectAck,
    ConnectRequest,
    DataRequest,
    DataResponse,
    DataSend,
    VisitClose,
    decode_visit,
    encode_visit,
)
from repro.visit.client import VisitClient
from repro.visit.protocol import VisitService
from repro.visit.server import VisitServer
from repro.visit.token import MasterToken
from repro.visit.vbroker import VBroker

__all__ = [
    "ConnectRequest",
    "ConnectAck",
    "DataSend",
    "DataRequest",
    "DataResponse",
    "VisitClose",
    "encode_visit",
    "decode_visit",
    "VisitClient",
    "VisitServer",
    "VisitService",
    "VBroker",
    "MasterToken",
]
