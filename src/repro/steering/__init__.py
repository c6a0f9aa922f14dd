"""The steering core: the paper's primary contribution.

RealityGrid-style computational steering (section 2): an application is
*instrumented* with a lean API — it registers steerable parameters, emits
samples for visualization, and polls for control messages at points it
chooses (so steering can never preempt the simulation, matching both the
RealityGrid API and VISIT's simulation-initiates-everything rule).

Who may steer a shared session (sections 2.4, 3.3, 4) is one rule, the
master token of :mod:`repro.visit.token`, which the vbroker, the UNICORE
VISIT proxy and the shared VizServer session apply.
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
    "steered_app_process",
    "RealityGridOrchestrator",
    "make_outbound_app_factory",
]
