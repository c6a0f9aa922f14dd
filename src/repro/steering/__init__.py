"""The steering core: the paper's primary contribution.

RealityGrid-style computational steering (section 2): an application is
*instrumented* with a lean API — it registers steerable parameters, emits
samples for visualization, and polls for control messages at points it
chooses (so steering can never preempt the simulation, matching both the
RealityGrid API and VISIT's simulation-initiates-everything rule).

On top of the per-application surface sit the *collaborative* pieces
(sections 2.4, 3.3, 4): a session with master/observer roles and
master-token passing, and the low-latency control-state server that
"collects and redistributes the control data" (view angles, cutting-plane
parameters) outside the heavyweight middleware path.
"""

from repro.steering.params import ParameterDef, ParameterRegistry
from repro.steering.control import (
    Ack,
    GetStatus,
    Pause,
    Resume,
    SampleMsg,
    SetParam,
    StatusReport,
    Stop,
    decode_message,
    encode_message,
)
from repro.steering.api import SteeredApplication
from repro.steering.client import SteeringClient
from repro.steering.session import CollaborativeSession
from repro.steering.collab import ControlStateServer
from repro.steering.runner import steered_app_process
from repro.steering.orchestrator import (
    RealityGridOrchestrator,
    make_outbound_app_factory,
)

__all__ = [
    "ParameterDef",
    "ParameterRegistry",
    "SetParam",
    "Pause",
    "Resume",
    "Stop",
    "GetStatus",
    "Ack",
    "StatusReport",
    "SampleMsg",
    "encode_message",
    "decode_message",
    "SteeredApplication",
    "SteeringClient",
    "CollaborativeSession",
    "ControlStateServer",
    "steered_app_process",
    "RealityGridOrchestrator",
    "make_outbound_app_factory",
]
